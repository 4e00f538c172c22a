"""The benchmark's workloads: inputs generated from a seed, and the checks
that the program's outputs are correct.

Only the standard library is imported at module level, so ``run.py`` can use
this module without loading holderlab; the probes import numpy, and the
checks that need holderlab take its ``campaign`` module as an argument.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from time import perf_counter

# One timed campaign call takes 0.2-0.4 s on a 2-core x86-64 machine (numpy
# 2.4, OpenBLAS 0.3.31), so a 15 s run makes 40-75 calls: enough for a median
# and a tail percentile with ten calls beyond it.
POSITIVE_PAIR = {"name": "positive_pair", "spectrum_range": [0.0, 1.0]}
CAMPAIGNS = {
    # criterion-01 shape: per-trial Python, RNG and small-LAPACK overhead
    "campaign-small": {
        "verifier": "bks",
        "thetas": [0.25, 0.5, 0.75],
        "ps": [1.0],
        "norms": [f"kyfan:{k}" for k in range(1, 9)]
        + ["schatten:1", "schatten:2", "schatten:inf"],
        "dims": [8],
        "trials": 16,
        "ensemble": POSITIVE_PAIR,
    },
    # 32x32 and 64x64 LAPACK (eigh, svd, qr) dominate
    "campaign-dim64": {
        "verifier": "bks",
        "thetas": [0.25, 0.75],
        "ps": [1.0],
        "norms": ["schatten:1", "kyfan:8"],
        "dims": [32, 64],
        "trials": 10,
        "ensemble": POSITIVE_PAIR,
    },
    # reverse-oriented verifier: scalar bisection in inverse_apply dominates
    "campaign-inverse": {
        "verifier": "inverse",
        "thetas": [1.5, 2.0, 3.0],
        "ps": [1.0],
        "norms": ["schatten:1"],
        "dims": [8],
        "trials": 32,
        "function": "spower:0.5",
    },
}
# workloads whose every cell carries an exact constant-1 claim
CONSTANT_ONE = {"campaign-small", "campaign-dim64"}
ONESHOT = "oneshot-cli"
WORKLOADS = tuple(CAMPAIGNS) + (ONESHOT,)

CONSTANT_ONE_TOL = 1e-8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def campaign_config(workload: str, seed: int) -> dict:
    """The campaign config of a campaign workload; the seed picks its root seed."""
    cfg = dict(CAMPAIGNS[workload])
    cfg["seed"] = _rng(workload, seed).randrange(1, 2**31)
    return cfg


def latency_calls(workload: str, seconds: float) -> int:
    """How many timed calls the latency percentiles are taken over.

    A run times calls for at least ``--seconds`` and at least this many; the
    percentiles use the first this-many calls only.  The number depends on
    ``--seconds`` alone, so that every commit reports the same percentile:
    the tail with ten calls beyond it is a higher percentile of a larger
    sample.  Campaign calls: 8/3 per second (40 at 15 s).  One-shot calls:
    whole passes of the call list, one pass per 5 s (27 calls at 15 s), so
    that the tail lies above the median.
    """
    if workload == ONESHOT:
        return len(oneshot_calls(0)) * max(1, round(seconds / 5))
    return max(11, round(seconds * 8 / 3))


def trials_per_call(cfg: dict) -> int:
    cells = len(cfg["thetas"]) * len(cfg["ps"]) * len(cfg["norms"]) * len(cfg["dims"])
    return cells * cfg["trials"]


def oneshot_calls(seed: int) -> list:
    """The fixed list of one-shot CLI argument lists; the seed picks the
    ``--seed`` of every seeded call."""
    rng = _rng(ONESHOT, seed)

    def s():
        return ["--seed", str(rng.randrange(1, 2**31))]

    calls = [
        ["mpnorm", "--symbol", "alpha", "--p", "1"] + s(),
        ["mpnorm", "--symbol", "beta", "--p", "1"] + s(),
        ["mpnorm", "--symbol", "b0", "--theta", "0.5", "--a", "1", "--p", "1"] + s(),
    ]
    for f in ("power:0.5", "log1p"):
        for p in ("0.5", "1"):
            calls.append(
                ["mpnorm", "--symbol", "dyadic:2", "--f", f, "--theta", "0.5", "--p", p] + s()
            )
    calls.append(["seminorm", "--f", "log1p", "--theta", "0.5", "--d", "4", "--p", "1"])
    calls.append(
        ["verify", "--ineq", "bks", "--theta", "0.5", "--norm", "schatten:1", "--dim", "8",
         "--trials", "20"] + s()
    )
    return calls


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- correctness checks ---------------------------------------------------------


def check_campaign_call(out_dir: str, cfg: dict, constant_one: bool, rc: int):
    """Check one ``holderlab campaign`` call's exit code and outputs.

    Returns (problems, failures, trials) where failures and trials are summed
    over the cells of report.json.
    """
    problems = []
    if rc != 0:
        problems.append(f"campaign exited {rc}")
    cx = os.path.join(out_dir, "counterexamples.json")
    if constant_one and os.path.exists(cx):
        problems.append("constant-1 campaign wrote counterexamples.json")
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    cells = report["cells"]
    if len(cells) * cfg["trials"] != trials_per_call(cfg):
        problems.append(f"report has {len(cells)} cells")
    failures = sum(int(c["failures"]) for c in cells)
    trials = sum(int(c["trials"]) for c in cells)
    return problems, failures, trials


def check_replay(out_dir: str, cfg: dict, campaign, constant_one: bool) -> list:
    """Replay every cell's argmax digest through ``campaign.replay`` and require
    the reported max_ratio, in report.json and in report.csv, bit for bit."""
    problems = []
    with open(os.path.join(out_dir, "report.json")) as fh:
        cells = json.load(fh)["cells"]
    with open(os.path.join(out_dir, "report.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != len(cells):
        return [f"report.csv has {len(rows)} rows for {len(cells)} cells"]
    config = campaign.CampaignConfig.from_dict(cfg)
    for idx, (cell, row) in enumerate(zip(cells, rows)):
        fields = row.split(",")
        csv_max, csv_digest = float(fields[5]), fields[8]
        digest = cell["argmax_digest"]
        if digest == "none" or csv_digest != digest:
            problems.append(f"cell {idx}: digest {digest!r} / csv {csv_digest!r}")
            continue
        seed, cell_idx, trial, _ = digest.split(":")
        if int(seed) != cfg["seed"] or int(cell_idx) != idx:
            problems.append(f"cell {idx}: digest {digest} names another campaign or cell")
            continue
        ratio = campaign.replay(config, idx, int(trial)).ratio
        if not (ratio == cell["max_ratio"] == csv_max):
            problems.append(
                f"cell {idx}: replay ratio {ratio!r} != reported {cell['max_ratio']!r} / {csv_max!r}"
            )
        if constant_one and not ratio <= 1.0 + CONSTANT_ONE_TOL:
            problems.append(f"cell {idx}: constant-1 ratio {ratio!r}")
    return problems


def check_oneshot_output(argv: list, rc: int, stdout: str) -> list:
    """A one-shot call must exit 0 and print the JSON its subcommand promises."""
    if rc != 0:
        return [f"{' '.join(argv)}: exit code {rc}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{' '.join(argv)}: stdout is not JSON: {stdout[:200]!r}"]
    command = argv[0]
    ok = True
    if command == "mpnorm":
        ok = out.get("lower_le_upper") is True and out["lower"] > 0.0
    elif command == "seminorm":
        ok = math.isfinite(out["value"]) and out["value"] > 0.0
    elif command == "verify":
        ok = not out["flagged"] and out["ratio"] <= 1.0 + CONSTANT_ONE_TOL
    return [] if ok else [f"{' '.join(argv)}: unexpected output {stdout[:200]!r}"]


# --- machine speed ----------------------------------------------------------------
#
# The 2-core machine the benchmark was tuned on is shared: its speed swings by
# up to 2x over minutes and in bursts of 1-3 s, for every process alike, so raw
# wall times of one commit spread more than any useful bound.  Every timed
# operation is therefore bracketed by a fixed probe of machine speed, and the
# reported times are scaled to the speed at which the probe takes PROBE_REF_S:
#     scaled time = raw time * PROBE_REF_S / mean(probe before, probe after).
# The probe does what a campaign trial does, small complex Gaussian draws, QR,
# eigh, a reconstruction product and singular values, with numpy directly and
# not through holderlab, so a change to holderlab moves the raw time and not
# the probe, and the scaled time by the same factor.  Of the probes tried it
# tracked the campaign calls' slow-downs best.  Raw times are printed beside.
PROBE_REF_S = 0.004


def _probe_pass(np, rng):
    for _ in range(40):
        g = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2.0)
        np.linalg.qr(g)
        h = 0.5 * (g + g.conj().T)
        w, v = np.linalg.eigh(h)
        m = (v * w) @ v.conj().T
        s = np.linalg.svd(m - h, compute_uv=False)
        float(np.abs(m).max()) + float(np.sum(s**0.5))


def probe() -> float:
    """Wall time of the fixed machine-speed probe.  An untimed pass first
    warms the caches, which a fresh-process call just before has emptied."""
    import numpy as np

    rng = np.random.default_rng(7)
    _probe_pass(np, rng)
    t = perf_counter()
    _probe_pass(np, rng)
    return perf_counter() - t


# A fresh-process CLI call is mostly interpreter start and imports, which the
# in-process probe does not track: over ten seeds it widened the one-shot
# spreads.  One-shot calls are scaled by a process probe instead, a fresh
# ``python -c "import numpy"``, against PROCESS_PROBE_REF_S.
PROCESS_PROBE_REF_S = 0.15


def process_probe() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True, stdout=subprocess.DEVNULL
    )
    return perf_counter() - t


def timed(fn):
    """Run ``fn`` between two probes: (fn's result, scale to reference speed)."""
    before = probe()
    result = fn()
    return result, 2.0 * PROBE_REF_S / (before + probe())


def tail_percentile(values: list):
    """The highest percentile that has at least ten samples beyond it, by
    nearest rank: returns (value, percentile, sample count).  With ten or
    fewer samples no such percentile exists and the maximum is returned with
    percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * i / (n - 1), n

