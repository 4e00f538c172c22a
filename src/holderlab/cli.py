"""Command-line front end: single verifications, campaigns, multiplier-norm
bounds, and seminorm reports.

Exit codes: 0 success (all exact-constant claims hold), 2 usage error,
3 counterexample candidate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
from dataclasses import asdict

from . import __version__, doi
from .campaign import NEEDS_FUNCTION, CampaignConfig, replay, run_campaign
from .ensembles import SeedState
from .errors import HolderLabError
from .functions import d_of_p, parse_function_spec, seminorm

DEFAULT_SEED = 20240801


def _seed_default() -> int:
    env = os.environ.get("HOLDERLAB_SEED")
    return int(env) if env else DEFAULT_SEED


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(command: str, config: dict, seed: int, outputs: list) -> dict:
    return {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


# --- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.ineq in NEEDS_FUNCTION and not args.f:
        print(f"--ineq {args.ineq} requires --f", file=sys.stderr)
        return 2
    ensemble = None
    if args.spectrum:
        eigenvalues = [float(t) for t in args.spectrum.split(",")]
        ensemble = {"name": "fixed_pair", "eigenvalues": eigenvalues}
    config = CampaignConfig(
        verifier=args.ineq,
        function=args.f,
        thetas=(args.theta,),
        ps=(args.p,),
        norms=(args.norm,),
        dims=(args.dim,),
        trials=args.trials,
        seed=args.seed,
        ensemble=ensemble,
        variant=args.variant,
    )
    report, counterexamples = run_campaign(config)
    cell = report.cells[0]
    if cell.argmax_digest == "none":
        print(f"all {cell.trials} trial(s) failed", file=sys.stderr)
        return 2
    argmax_trial = int(cell.argmax_digest.split(":")[2])
    record = replay(config, 0, argmax_trial)
    print(json.dumps(asdict(record), sort_keys=True))
    return 3 if counterexamples else 0


# --- campaign -------------------------------------------------------------------


def cmd_campaign(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    config = CampaignConfig.from_dict(raw)
    report, counterexamples = run_campaign(config)
    out = args.out
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "report.csv")
    json_path = os.path.join(out, "report.json")
    manifest_path = os.path.join(out, "manifest.json")
    outputs = [csv_path, json_path]
    _atomic_write(csv_path, report.to_csv())
    payload = report.to_dict()
    payload["manifest"] = os.path.basename(manifest_path)
    _atomic_write(json_path, json.dumps(payload, indent=2, sort_keys=True))
    if counterexamples:
        cx_path = os.path.join(out, "counterexamples.json")
        _atomic_write(cx_path, json.dumps(counterexamples, indent=2, sort_keys=True))
        outputs.append(cx_path)
    manifest = _manifest("campaign", config.to_dict(), config.seed, outputs)
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote {csv_path} ({len(report.cells)} cells)")
    empty = [c for c in report.cells if c.failures == c.trials]
    for c in empty:
        print(
            f"cell theta={c.theta:g} p={c.p:g} norm={c.norm} dim={c.dim}: "
            f"all {c.trials} trial(s) failed",
            file=sys.stderr,
        )
    if empty:
        return 2
    if counterexamples:
        print(f"{len(counterexamples)} counterexample candidate(s) persisted", file=sys.stderr)
        return 3
    return 0


# --- multiplier-norm bounds -------------------------------------------------------


def _build_symbol(args):
    sym_spec = args.symbol.lower()
    if sym_spec == "alpha":
        return doi.alpha_symbol(), "alpha"
    if sym_spec == "beta":
        return doi.beta_symbol(), "beta"
    if sym_spec == "b0":
        return doi.b0_symbol(args.theta, args.a), "b0"
    if sym_spec == "b1":
        return doi.b1_symbol(args.theta, args.a), "b1"
    if sym_spec.startswith("dyadic:"):
        if not args.f:
            raise HolderLabError("dyadic symbols need --f")
        k = int(sym_spec.split(":", 1)[1])
        f = parse_function_spec(args.f)
        g, _ = doi.dyadic_symbols(f, k)
        return g, f"dyadic:{k}"
    raise HolderLabError(f"unknown symbol {args.symbol!r}")


def cmd_mpnorm(args) -> int:
    sym, kind = _build_symbol(args)
    lower = doi.empirical_mp_lower(sym, args.p, args.dim, args.trials, SeedState(args.seed)).value
    upper = None
    method = "empirical"
    want = args.method
    if want in ("decomposition", "auto") and kind == "alpha":
        upper = doi.decomposition_bound(doi.alpha_decomposition(), args.p)
        method = "decomposition"
    elif want in ("decomposition", "auto") and kind == "beta":
        upper = doi.decomposition_bound(doi.beta_decomposition(), args.p)
        method = "decomposition"
    elif want == "decomposition":
        raise HolderLabError(f"no separable decomposition built in for {kind}")
    elif want in ("fourier", "auto") and kind in ("b0", "b1"):
        upper = doi.b0_upper_bound(args.theta, args.a, args.p, b=args.b, grid_n=args.grid)
        method = "fourier-dyadic"
    elif want in ("fourier", "auto") and kind.startswith("dyadic"):
        k = int(kind.split(":")[1])
        f = parse_function_spec(args.f)
        upper = doi.dyadic_upper_bound(f, k, args.theta, args.p, grid_n=args.grid)
        method = "fourier-composite"
    elif want == "fourier":
        raise HolderLabError(f"fourier route not applicable to {kind}")
    bound = doi.MpBound(lower=lower, upper=upper, method=method)
    consistent = bound.upper is None or bound.lower <= bound.upper * (1.0 + 1e-8)
    payload = {"symbol": kind, "p": args.p, "lower_le_upper": consistent, **asdict(bound)}
    print(json.dumps(payload, sort_keys=True))
    return 0 if consistent else 3


# --- seminorm --------------------------------------------------------------------


def cmd_seminorm(args) -> int:
    f = parse_function_spec(args.f)
    est = seminorm(f, args.d, args.theta)
    out = {
        "function": f.name,
        "theta": args.theta,
        "d": args.d,
        "per_order": list(est.per_order),
        "value": est.value,
        "grid": est.grid,
    }
    if args.p is not None:
        out["d_of_p"] = d_of_p(args.p)
    print(json.dumps(out, sort_keys=True))
    return 0


# --- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="Matrix laboratory for operator Holder-type inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one inequality verifier")
    pv.add_argument(
        "--ineq",
        required=True,
        choices=[
            "main",
            "bks",
            "submaj",
            "symmetric",
            "inverse",
            "reverse",
            "commutator",
            "quasicommutator",
            "absmap",
            "alt",
            "telescope",
        ],
    )
    pv.add_argument("--f", default=None, help="function spec, e.g. power:0.5")
    pv.add_argument("--theta", type=float, default=0.5)
    pv.add_argument("--p", type=float, default=1.0)
    pv.add_argument("--norm", default="schatten:1", help="norm spec, e.g. kyfan:3")
    pv.add_argument("--dim", type=int, default=6)
    pv.add_argument("--seed", type=int, default=_seed_default())
    pv.add_argument("--trials", type=int, default=1)
    pv.add_argument("--variant", default="power", choices=["power", "expm1"])
    pv.add_argument("--spectrum", default=None, help="fixed eigenvalues, comma separated")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("campaign", help="run a campaign from a JSON config")
    pc.add_argument("config", help="path to the JSON campaign config")
    pc.add_argument("--out", default="campaign_out", help="output directory")
    pc.set_defaults(func=cmd_campaign)

    pm = sub.add_parser("mpnorm", help="multiplier-norm bounds for a symbol")
    pm.add_argument("--symbol", required=True, help="alpha | beta | b0 | b1 | dyadic:K")
    pm.add_argument("--f", default=None)
    pm.add_argument("--theta", type=float, default=0.5)
    pm.add_argument("--a", type=float, default=1.0)
    pm.add_argument("--p", type=float, default=1.0)
    pm.add_argument(
        "--method", default="auto", choices=["auto", "decomposition", "fourier", "empirical"]
    )
    pm.add_argument("--b", type=int, default=None)
    pm.add_argument("--dim", type=int, default=6)
    pm.add_argument("--trials", type=int, default=200)
    pm.add_argument("--grid", type=int, default=256)
    pm.add_argument("--seed", type=int, default=_seed_default())
    pm.set_defaults(func=cmd_mpnorm)

    ps = sub.add_parser("seminorm", help="weighted-derivative seminorm report")
    ps.add_argument("--f", required=True)
    ps.add_argument("--theta", type=float, required=True)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--p", type=float, default=None)
    ps.set_defaults(func=cmd_seminorm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HolderLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
