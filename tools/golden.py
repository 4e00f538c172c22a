"""Write the golden set: the deterministic outputs of 155 campaign configs,
3 ``holderlab campaign`` calls, 25 ``holderlab verify`` calls and 44 other
CLI calls, and print one sha256 over all of them.

    python3 tools/golden.py OUT_DIR
    python3 tools/golden.py --compare DIR_A DIR_B

Run it in two checkouts and compare the printed hashes (or ``diff -r`` the
two directories): a change that keeps every report byte-identical prints the
hash its parent prints.  The holderlab under test is the one in this
checkout's ``src``.  BLAS runs on one thread.

``--compare`` prints the name of every verify and CLI call whose stdout,
stderr or exit code differs between two golden sets, with the parts that
differ; when a stdout is one JSON object on both sides, it also names the
keys whose values differ, each number with its relative change, as in
``cli-oneshot-3: stdout (upper 2.8e-16)``.  It then reads the cells of
every ``report.json`` of both and prints how many cells changed, the
largest relative change of each statistic (max_ratio, min_ratio, q50,
q99), every cell whose statistic went from NaN to finite or back, and every
finite statistic that moved by more than BOUND (1e-12) relative.  It exits 1
when a statistic moved beyond the bound or became NaN, else 0.

Per config, OUT_DIR/<name>/ holds ``report.csv``, ``report.json`` and
``counterexamples.json`` (``error.txt`` for a config refused at load), and
``forced-counterexamples.json``: the counterexamples of a second run with
every claim set to -inf, so that every record that passes its checks is
written with its inputs.  Three of the configs (bks-seed-9, mixed-nan, and
stacked-fixed-degenerate-s7 with every claim set to -inf, as
``-forced``) also run through ``holderlab campaign``, whose own writer then
fills OUT_DIR/cli-campaign-<name>/: ``report.csv``, ``report.json`` and
``counterexamples.json``, without ``manifest.json``, whose timestamp
varies, beside the call's ``stdout`` (the directory's path cut out),
``stderr`` and ``exit``.  Per verify call, OUT_DIR/verify-<name>/ holds
``stdout``, ``stderr`` and ``exit`` (an argparse usage error included), and
so does OUT_DIR/cli-<name>/ per CLI call: the benchmark's one-shot calls at
seed 1, ``mpnorm`` on b1, every ``--method`` on alpha and b0, and the bands
dyadic:K for K in {-3, 0, 7} of log1p, rational:1 and gauss, so that the
symbols and bounds of ``doi`` that ``mpnorm`` reaches are checked byte for
byte; dyadic:2 of power:0.5 and log1p at ``--grid 2`` and ``--grid 33``,
whose bump supports hold one point and an odd number of points, the edges of
the Fourier route's symmetric pair list; b0 and dyadic:2 of log1p at
``--grid 1024``, the cap, where the route's moments are taken over the most
blocks; dyadic:2 of power:0.5 and gauss at p = 0.3 (b = 4, the most parts of
the divided-difference table); and
``mpnorm`` at p = 2, where no upper route applies, on alpha, b0 and dyadic:2
of log1p under ``auto`` and ``empirical``, and on alpha under
``decomposition`` (refused); and ``seminorm`` of power:0.5 at d = 4 and
theta 0.5, its own degree, where the seminorm is exact, and theta 0.75, where
every order sits on a grid edge.

The configs: every entry of CONFIGS below, at seeds 101 and 7 (all 11
verifiers on every ensemble each draws from, edge spectra, invalid cells,
stack boundaries); the three perfbench campaign workloads at seeds 1-3; 14
configs whose p-th powers overflow (main, submaj, symmetric, absmap, reverse,
inverse and alt) and an absmap config whose ratios are partly NaN; main,
submaj, alt and telescope grids over theta and p; a cell with no ratio; a
config with no valid cell; a bks config at seed 9; and 8 configs refused at
load by their ensemble: a positive_pair spectrum_range [1, 0] and [0,
inf], a fixed_pair with too few eigenvalues, with an infinite one and with a
negative one under bks, a rank_one_steps rank 0, a rank above the dim and a
magnitudes_range [0, 1].  The
verify calls run every verifier once, and once per kind of cell check that
fails: theta out of range, a norm that is not fully symmetric, p out of
range, a seminorm of an order f lacks, and an infinite seminorm; and with an
unknown ``--ineq`` and an unknown ``--variant``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from holderlab import campaign  # noqa: E402
from holderlab.campaign import CampaignConfig, run_campaign  # noqa: E402
from holderlab.cli import main as cli_main  # noqa: E402
from holderlab.errors import HolderLabError  # noqa: E402
from perfbench.workloads import CAMPAIGNS, campaign_config, oneshot_calls  # noqa: E402

NORMS = ["schatten:1", "kyfan:2", "schatten:inf"]
TINY = {"name": "positive_pair", "spectrum_range": [0.0, 1e-8]}
HUGE = {"name": "positive_pair", "spectrum_range": [1e7, 1e8]}
FIXED = {"name": "fixed_pair", "eigenvalues": [0.0, 0.0, 0.5, 0.5, 1.0]}

CONFIGS = {
    "small-dims": dict(thetas=[0.5], norms=["schatten:1", "kyfan:2"], dims=[1, 2, 3, 8], trials=33),
    "chunk-65": dict(thetas=[0.25, 0.75], norms=["schatten:inf"], dims=[8], trials=65),
    "dims-32-64": dict(thetas=[0.5], norms=["schatten:1"], dims=[32, 64], trials=3),
    "tiny-spectrum": dict(thetas=[0.3], norms=NORMS, dims=[3, 8], trials=33, ensemble=TINY),
    "huge-spectrum": dict(thetas=[0.7], norms=NORMS, dims=[3, 8], trials=33, ensemble=HUGE),
    "fixed-degenerate": dict(thetas=[0.5], norms=NORMS, dims=[5], trials=20, ensemble=FIXED),
    "invalid-cells": dict(
        thetas=[1.5, 0.5], norms=["schatten:0.5", "schatten:1"], dims=[8], trials=5
    ),
    "two-norms": dict(thetas=[0.5], norms=["schatten:1", "kyfan:2"], dims=[3, 8], trials=40),
}
FUNCTION_OF = {
    "main": "power:0.5",
    "submaj": "power:0.5",
    "symmetric": "power:0.5",
    "inverse": "srational:1",
    "commutator": "power:0.5",
    "quasicommutator": "power:0.5",
    "telescope": "power:0.5",
}
ENSEMBLE_OF = {
    "gaussian": {"name": "gaussian_pair"},
    "commuting": {"name": "commuting_pair"},
    "general": {"name": "general_pair"},
    "positive": {"name": "positive_pair"},
    "tiny": TINY,
    "huge": HUGE,
    "fixed": FIXED,
    "contraction": {"name": "hermitian_contraction"},
    "pair-contraction": {"name": "hermitian_pair_contraction"},
    "steps": {"name": "rank_one_steps"},
}
# every verifier but bks on each ensemble it draws from, 33 trials at dim 8
for _verifier in sorted(set(campaign.VERIFIERS) - {"bks"}):
    for _key, _ens in ENSEMBLE_OF.items():
        if _ens["name"] in campaign.VERIFIERS[_verifier].ensembles:
            CONFIGS[f"{_verifier}-{_key}"] = dict(
                verifier=_verifier,
                function=FUNCTION_OF.get(_verifier),
                thetas=[1.5] if _verifier in ("inverse", "reverse") else [0.5],
                norms=["kyfan:2"],
                dims=[len(_ens["eigenvalues"])] if "eigenvalues" in _ens else [8],
                trials=33,
                ensemble=_ens,
            )
CONFIGS["reverse-expm1-gaussian"] = dict(CONFIGS["reverse-gaussian"], variant="expm1")
CONFIGS["reverse-expm1-huge"] = dict(CONFIGS["reverse-huge"], variant="expm1")
CONFIGS["telescope-rank-1"] = dict(
    CONFIGS["telescope-steps"], ensemble={"name": "rank_one_steps", "rank": 1}
)
CONFIGS["telescope-rank-8"] = dict(
    CONFIGS["telescope-steps"], ensemble={"name": "rank_one_steps", "rank": 8}
)
CONFIGS["telescope-dim-1"] = dict(CONFIGS["telescope-steps"], dims=[1])
CONFIGS["telescope-p-0.5"] = dict(CONFIGS["telescope-steps"], ps=[0.5])


STEPS = {"verifier": "telescope", "function": "power:0.5"}
# ensembles that a config refuses at load, each writing its error.txt
REFUSED = {
    "positive-range-reversed": {"ensemble": {"name": "positive_pair", "spectrum_range": [1, 0]}},
    "positive-range-infinite": {
        "ensemble": {"name": "positive_pair", "spectrum_range": [0, math.inf]}
    },
    "fixed-miscounted": {"ensemble": {"name": "fixed_pair", "eigenvalues": [0.0, 1.0]}},
    "fixed-infinite": {
        "ensemble": {"name": "fixed_pair", "eigenvalues": [0.0, 1.0, 2.0, math.inf]}
    },
    "fixed-negative-for-bks": {"ensemble": {"name": "fixed_pair", "eigenvalues": [-1, 0, 1, 2]}},
    "rank-0": {**STEPS, "ensemble": {"name": "rank_one_steps", "rank": 0}},
    "rank-above-dim": {**STEPS, "ensemble": {"name": "rank_one_steps", "rank": 5}},
    "magnitudes-range-from-0": {
        **STEPS, "ensemble": {"name": "rank_one_steps", "magnitudes_range": [0, 1]}
    },
}


def campaigns() -> dict:
    """Every golden campaign config by name."""
    out = {}
    for name, cfg in CONFIGS.items():
        for seed in (101, 7):
            out[f"stacked-{name}-s{seed}"] = {"verifier": "bks", "ps": [1.0], "seed": seed, **cfg}
    for workload in CAMPAIGNS:
        for seed in (1, 2, 3):
            out[f"{workload}-s{seed}"] = campaign_config(workload, seed)
    for verifier in ("main", "submaj", "symmetric", "absmap", "reverse", "inverse", "alt"):
        for low in (1e7, 1e3):
            out[f"overflow-{verifier}-{low:g}"] = {
                "verifier": verifier,
                "function": {"inverse": "spower:0.5"}.get(verifier, "power:0.5"),
                "thetas": [1.5] if verifier in ("inverse", "reverse") else [0.5],
                "ps": [20.0, 40.0, 400.0],
                # alt takes no norm
                "norms": ["schatten:1"] if verifier == "alt" else ["schatten:1", "kyfan:2"],
                "dims": [4, 8],
                "trials": 40,
                "seed": 1,
                "ensemble": {"name": "positive_pair", "spectrum_range": [low, 1e8]},
            }
    out["mixed-nan"] = {
        "verifier": "absmap", "thetas": [0.5], "ps": [20.0, 40.0, 400.0],
        "norms": ["schatten:1", "kyfan:2"], "dims": [4, 8], "trials": 40, "seed": 1,
        "ensemble": {"name": "positive_pair", "spectrum_range": [1e3, 1e8]},
    }
    for verifier, ensemble in (
        ("main", None), ("submaj", None), ("alt", None),
        ("telescope", {"name": "rank_one_steps", "rank": 3}),
    ):
        out[f"grid-{verifier}"] = {
            "verifier": verifier, "function": FUNCTION_OF.get(verifier),
            "thetas": [0.25, 0.5, 0.75], "ps": [1.0, 0.5], "norms": ["schatten:1"],
            "dims": [3, 8], "trials": 12, "seed": 5, "ensemble": ensemble,
        }
    out["no-ratio"] = {
        "verifier": "bks", "thetas": [0.5], "ps": [1.0], "norms": ["schatten:1"], "dims": [2],
        "trials": 4, "seed": 7, "ensemble": {"name": "fixed_pair", "eigenvalues": [0.0, 0.0]},
    }
    out["no-valid-cell"] = {
        "verifier": "bks", "thetas": [1.5], "ps": [1.0], "norms": ["schatten:1", "kyfan:2"],
        "dims": [3, 8], "trials": 20, "seed": 7,
    }
    out["bks-seed-9"] = {
        "verifier": "bks", "thetas": [0.5], "ps": [1.0], "norms": ["schatten:1", "kyfan:2"],
        "dims": [3, 8], "trials": 20, "seed": 9,
    }
    for name, cfg in REFUSED.items():
        out[f"refused-{name}"] = {
            "verifier": "bks", "thetas": [0.5], "ps": [1.0], "norms": ["schatten:1"],
            "dims": [4], "trials": 4, "seed": 7, **cfg,
        }
    return out


# the golden campaigns that also run through ``holderlab campaign``, so that
# its own writer is checked, each with whether every claim is set to -inf
CLI_CAMPAIGNS = {"bks-seed-9": False, "mixed-nan": False, "stacked-fixed-degenerate-s7": True}


CELL_CHECKS = {
    "bks-theta": ["bks", "--theta", "1.5"],
    "bks-norm": ["bks", "--norm", "schatten:0.5"],
    "reverse-theta": ["reverse", "--theta", "0.5"],
    "inverse-theta": ["inverse", "--f", "spower:0.5", "--theta", "0.5"],
    "alt-theta": ["alt", "--theta", "1.5"],
    "telescope-p": ["telescope", "--f", "power:0.5", "--p", "2"],
    "main-order": ["main", "--f", "power:0.5", "--p", "0.25"],
    "main-infinite": ["main", "--f", "sexpm1"],
    "commutator-infinite": ["commutator", "--f", "sexpm1"],
    "absmap-norm": ["absmap", "--norm", "schatten:0.5"],
}


def verify_calls() -> dict:
    """Every golden ``holderlab verify`` call by name."""
    common = ["--dim", "6", "--trials", "20", "--seed", "7", "--norm", "kyfan:2"]
    calls = {}
    for verifier in campaign.VERIFIERS:
        argv = ["verify", "--ineq", verifier, *common]
        argv += ["--theta", "1.5" if verifier in ("inverse", "reverse") else "0.5"]
        if verifier in FUNCTION_OF:
            argv += ["--f", "spower:0.5" if verifier == "inverse" else FUNCTION_OF[verifier]]
        calls[verifier] = argv
    calls["reverse-expm1"] = calls["reverse"] + ["--variant", "expm1"]
    calls["symmetric-overflow"] = [
        "verify", "--ineq", "symmetric", "--f", "power:0.5", "--p", "400", "--dim", "4",
        "--trials", "5", "--seed", "1", "--spectrum", "1e7,2e7,5e7,1e8",
    ]
    # one call per kind of cell check that fails, each failing all 20 trials
    for name, args in CELL_CHECKS.items():
        calls[f"cell-{name}"] = ["verify", "--ineq", *args, "--dim", "6", "--trials", "20",
                                 "--seed", "7"]
    calls["unknown-ineq"] = ["verify", "--ineq", "nope", *common]
    calls["unknown-variant"] = calls["reverse"] + ["--variant", "cube"]
    return calls


def cli_calls() -> dict:
    """Every golden ``holderlab mpnorm`` and one-shot call by name."""
    calls = {f"oneshot-{i}": argv for i, argv in enumerate(oneshot_calls(1))}
    seed = ["--seed", "11"]
    calls["b1"] = ["mpnorm", "--symbol", "b1", "--theta", "0.3", "--a", "2", "--p", "0.7", *seed]
    for symbol in ("alpha", "b0"):
        for method in ("auto", "decomposition", "fourier", "empirical"):
            argv = ["mpnorm", "--symbol", symbol, "--method", method, "--p", "1", *seed]
            calls[f"{symbol}-{method}"] = argv
    for k in (-3, 0, 7):
        for f in ("log1p", "rational:1", "gauss"):
            argv = ["mpnorm", "--symbol", f"dyadic:{k}", "--f", f, "--grid", "32", *seed]
            calls[f"dyadic{k}-{f.replace(':', '')}"] = argv
    for grid in ("2", "33"):
        for f in ("power:0.5", "log1p"):
            argv = ["mpnorm", "--symbol", "dyadic:2", "--f", f, "--grid", grid, *seed]
            calls[f"dyadic2-{f.replace(':', '')}-grid{grid}"] = argv
    calls["b0-grid1024"] = ["mpnorm", "--symbol", "b0", "--grid", "1024", *seed]
    calls["dyadic2-log1p-grid1024"] = ["mpnorm", "--symbol", "dyadic:2", "--f", "log1p",
                                       "--grid", "1024", *seed]
    for f in ("power:0.5", "gauss"):
        argv = ["mpnorm", "--symbol", "dyadic:2", "--f", f, "--p", "0.3", *seed]
        calls[f"dyadic2-{f.replace(':', '')}-p0.3"] = argv
    # p = 2 is outside every upper route
    p2 = {"alpha": ["alpha"], "b0": ["b0"], "dyadic2": ["dyadic:2", "--f", "log1p"]}
    for name, symbol in p2.items():
        for method in ("auto", "empirical"):
            argv = ["mpnorm", "--symbol", *symbol, "--method", method, "--p", "2", *seed]
            calls[f"{name}-p2-{method}"] = argv
    calls["alpha-p2-decomposition"] = ["mpnorm", "--symbol", "alpha", "--method",
                                       "decomposition", "--p", "2", *seed]
    # power:0.5 at its own degree (the closed form) and off it (grid edges)
    for name, theta in (("exact", "0.5"), ("edge", "0.75")):
        calls[f"seminorm-power-{name}"] = ["seminorm", "--f", "power:0.5", "--theta", theta,
                                           "--d", "4"]
    return calls


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _counterexamples(cxs) -> str:
    return json.dumps(cxs, indent=2, sort_keys=True)


@contextlib.contextmanager
def _forced_claims():
    """Within the block, the verifier table has every claim set to -inf."""
    real = campaign.VERIFIERS
    campaign.VERIFIERS = {
        name: dataclasses.replace(v, claim=lambda spec, p: -math.inf) for name, v in real.items()
    }
    try:
        yield
    finally:
        campaign.VERIFIERS = real


def write_campaign(out, name, cfg):
    d = os.path.join(out, name)
    try:
        config = CampaignConfig.from_dict(cfg)
    except HolderLabError as exc:
        _write(os.path.join(d, "error.txt"), f"{type(exc).__name__}: {exc}\n")
        return
    report, cxs = run_campaign(config)
    _write(os.path.join(d, "report.csv"), report.to_csv())
    _write(os.path.join(d, "report.json"), report.to_json())
    _write(os.path.join(d, "counterexamples.json"), _counterexamples(cxs))
    with _forced_claims():
        _, forced = run_campaign(config)
    _write(os.path.join(d, "forced-counterexamples.json"), _counterexamples(forced))


def write_call(out, name, argv):
    """The stdout, stderr and exit code of the CLI call ``argv`` in
    OUT_DIR/``name``/; the path of that directory, which ``holderlab
    campaign`` prints, is cut out of the stdout."""
    d = os.path.join(out, name)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # a usage error caught by argparse
            rc = exc.code
    _write(os.path.join(d, "stdout"), stdout.getvalue().replace(d + os.sep, ""))
    _write(os.path.join(d, "stderr"), stderr.getvalue())
    _write(os.path.join(d, "exit"), f"{rc}\n")


def write_cli_campaign(out, name, cfg, forced):
    """``holderlab campaign`` on ``cfg``, with every claim set to -inf if
    ``forced``, as the call OUT_DIR/cli-campaign-``name``/ beside the
    report.csv, report.json and counterexamples.json the CLI wrote there;
    its manifest.json, whose timestamp varies, is removed."""
    name = f"cli-campaign-{name}" + ("-forced" if forced else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        _write(path, json.dumps(cfg))
        with _forced_claims() if forced else contextlib.nullcontext():
            write_call(out, name, ["campaign", path, "--out", os.path.join(out, name)])
    os.remove(os.path.join(out, name, "manifest.json"))


def digest(out) -> str:
    """sha256 over every file of ``out``: its relative path and its bytes,
    in path order."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(root, f), out)
        for root, _, files in os.walk(out)
        for f in files
    )
    for rel in paths:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(out, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


STATISTICS = ("max_ratio", "min_ratio", "q50", "q99")
BOUND = 1e-12  # the largest relative change of a finite statistic compare accepts


def _cells(out) -> dict:
    """Every report.json cell of the golden set ``out``, by (config, cell)."""
    cells = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name, "report.json")
        if os.path.exists(path):
            with open(path) as fh:
                for i, cell in enumerate(json.load(fh)["cells"]):
                    cells[(name, i)] = cell
    return cells


CALL_PARTS = ("stdout", "stderr", "exit")


def _calls(out) -> dict:
    """The stdout, stderr and exit code of every call of the golden set
    ``out``, by name."""
    calls = {}
    for name in sorted(os.listdir(out)):
        if name.startswith(("verify-", "cli-")):
            parts = []
            for part in CALL_PARTS:
                with open(os.path.join(out, name, part), "rb") as fh:
                    parts.append(fh.read())
            calls[name] = parts
    return calls


def _stdout_keys(x: bytes, y: bytes) -> str:
    """" (k, ...)" naming the keys whose values differ when both stdouts are
    one JSON object, else "": a key whose value is a number on both sides
    with its relative change, as "upper 2.8e-16"."""
    try:
        a, b = json.loads(x), json.loads(y)
    except ValueError:
        return ""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ""
    # compared as JSON text, in which NaN equals NaN; a missing key differs
    keys = [k for k in sorted(a.keys() | b.keys())
            if k not in a or k not in b or json.dumps(a[k]) != json.dumps(b[k])]
    numbers = [k for k in keys if all(_is_number(v.get(k)) for v in (a, b))]
    keys = [f"{k} {_relative(a[k], b[k]):.2g}" if k in numbers else k for k in keys]
    return f" ({', '.join(keys)})" if keys else ""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a, b) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a and math.isfinite(a) else math.inf


def compare(dir_a, dir_b) -> int:
    """Print how the calls and report cells of ``dir_b`` differ from those of
    ``dir_a``."""
    calls_a, calls_b = _calls(dir_a), _calls(dir_b)
    names = sorted(calls_a.keys() | calls_b.keys())
    differ = {}
    for name in names:
        x, y = calls_a.get(name), calls_b.get(name)
        if x != y:
            where = CALL_PARTS if x is None or y is None else (
                part + (_stdout_keys(u, v) if part == "stdout" else "")
                for part, u, v in zip(CALL_PARTS, x, y)
                if u != v
            )
            differ[name] = ", ".join(where)
    print(f"{len(differ)} of {len(names)} calls differ in stdout, stderr or exit code")
    for name, where in differ.items():
        print(f"  {name}: {where}")
    a, b = _cells(dir_a), _cells(dir_b)
    if a.keys() != b.keys():
        print(f"the golden sets differ in their cells: {sorted(a.keys() ^ b.keys())[:10]}")
        return 1
    # compared as JSON text, in which NaN equals NaN
    changed = [key for key in a if json.dumps(a[key]) != json.dumps(b[key])]
    moved = sum(a[key]["argmax_digest"] != b[key]["argmax_digest"] for key in changed)
    print(f"{len(changed)} of {len(a)} cells changed ({moved} in their argmax_digest)")
    worst, flips, beyond = dict.fromkeys(STATISTICS, 0.0), [], []
    for key in changed:
        for stat in STATISTICS:
            x, y = float(a[key][stat]), float(b[key][stat])
            where = f"{key[0]} cell {key[1]} {stat}: {x!r} -> {y!r}"
            if math.isnan(x) != math.isnan(y):
                flips.append((math.isnan(y), where))
            elif not math.isnan(x):
                worst[stat] = max(worst[stat], _relative(x, y))
                if _relative(x, y) > BOUND:
                    beyond.append(f"{where} ({_relative(x, y):.3g} relative)")
    for stat in STATISTICS:
        print(f"largest relative change of {stat}: {worst[stat]:.3g}")
    print(f"{len(flips)} statistic(s) changed between NaN and finite")
    for _, where in flips:
        print(f"  {where}")
    print(f"{len(beyond)} finite statistic(s) moved by more than {BOUND:g} relative")
    for where in beyond:
        print(f"  {where}")
    return 1 if beyond or any(to_nan for to_nan, _ in flips) else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="tools/golden.py")
    parser.add_argument("out", nargs="?", help="the empty directory to write the golden set to")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT_DIR or --compare DIR_A DIR_B")
    out = args.out
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    configs = campaigns()
    for name, cfg in configs.items():
        write_campaign(out, name, cfg)
    for name, forced in CLI_CAMPAIGNS.items():
        write_cli_campaign(out, name, configs[name], forced)
    for name, call in verify_calls().items():
        write_call(out, f"verify-{name}", call)
    for name, call in cli_calls().items():
        write_call(out, f"cli-{name}", call)
    print(digest(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
