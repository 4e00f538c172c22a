"""Command-line front end: single verifications, campaigns, multiplier-norm
bounds, and seminorm reports.

Exit codes: 0 success (all exact-constant claims hold), 2 usage error,
3 counterexample candidate.

Each subcommand imports the modules it runs when it runs, so a one-shot call
loads only those: ``seminorm`` loads ``functions`` alone, ``mpnorm`` no
campaign or verifier code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import __version__
from .errors import HolderLabError, ParameterError

DEFAULT_SEED = 20240801


def _atomic_write(path: str, text: str):
    """Write ``text``, UTF-8 encoded, to a new temporary file beside
    ``path``, then replace ``path`` by it.  The directory must exist: it is
    not created here, so one removed since the caller made it raises
    FileNotFoundError.  The file is created with mode 0o666, which the
    kernel reduces by the umask, so it gets the mode a plain open gives; a
    temporary name already on disk (left by a killed run, say) is passed
    over for the next."""
    data = text.encode()
    d, name = os.path.split(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    for attempt in itertools.count():
        tmp = os.path.join(d, f".tmp-{name}-{os.getpid()}-{attempt}.part")
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileExistsError:
            continue
        break
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(command: str, argv: list, config: dict, seed: int, outputs: list) -> dict:
    import datetime

    from .campaign import REPORT_FORMAT

    return {
        "command": command,
        "argv": argv,
        "config": config,
        "version": __version__,
        "report_format": REPORT_FORMAT,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


# --- verify ---------------------------------------------------------------------


def _spectrum(text: str) -> list:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")


def cmd_verify(args) -> int:
    from dataclasses import asdict

    from .campaign import CampaignConfig, replay, run_campaign

    ensemble = None
    if args.spectrum:
        ensemble = {"name": "fixed_pair", "eigenvalues": args.spectrum}
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
        print(_no_ratio_reason(config, 0, cell), file=sys.stderr)
        return 2
    argmax_trial = int(cell.argmax_digest.split(":")[2])
    record = replay(config, 0, argmax_trial)
    print(json.dumps(asdict(record), sort_keys=True))
    return 3 if counterexamples else 0


# --- campaign -------------------------------------------------------------------


def _no_ratio_reason(config, cell_idx, cell) -> str:
    """Why a cell has no ratio to report (its argmax digest is "none"): every
    trial failed, named by the error of its trial 0, every ratio is NaN, or
    every record had rhs = 0."""
    from .campaign import replay

    if cell.failures == cell.trials:
        cause = ""
        try:
            replay(config, cell_idx, 0)
        except HolderLabError as exc:
            cause = f"; trial 0: {type(exc).__name__}: {exc}"
        return f"all {cell.trials} trial(s) failed{cause}"
    reason = "every record had rhs = 0"
    if math.isnan(cell.max_ratio):
        reason = "every ratio is NaN, since lhs and rhs are not finite"
    reason += f" ({cell.trials - cell.failures} record(s)"
    return reason + (f", {cell.failures} failed trial(s))" if cell.failures else ")")


def cmd_campaign(args) -> int:
    from .campaign import CampaignConfig, indented_json, run_campaign

    try:
        fh = open(args.config)
    except OSError as exc:
        raise HolderLabError(str(exc)) from exc
    with fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise HolderLabError(f"malformed config: {exc}") from exc
    config = CampaignConfig.from_dict(raw)
    out = args.out
    try:
        # an --out that cannot be a directory fails here, before any trial runs
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise HolderLabError(str(exc)) from exc
    report, counterexamples = run_campaign(config)
    csv_path = os.path.join(out, "report.csv")
    json_path = os.path.join(out, "report.json")
    manifest_path = os.path.join(out, "manifest.json")
    outputs = [csv_path, json_path]
    _atomic_write(csv_path, report.to_csv())
    payload = report.to_dict()
    payload["manifest"] = os.path.basename(manifest_path)
    _atomic_write(json_path, indented_json(payload))
    cx_path = os.path.join(out, "counterexamples.json")
    if counterexamples:
        _atomic_write(cx_path, indented_json(counterexamples))
        outputs.append(cx_path)
    elif os.path.exists(cx_path):
        # a file left by an earlier run into this directory is not this run's
        os.remove(cx_path)
    manifest = _manifest("campaign", args.argv, payload["config"], config.seed, outputs)
    _atomic_write(manifest_path, indented_json(manifest))
    print(f"wrote {csv_path} ({len(report.cells)} cells)")
    empty = [(i, c) for i, c in enumerate(report.cells) if c.argmax_digest == "none"]
    for i, c in empty:
        print(
            f"cell theta={c.theta:g} p={c.p:g} norm={c.norm} dim={c.dim}: "
            f"{_no_ratio_reason(config, i, c)}",
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
    """The symbol --symbol names, its kind, and (f, K) for dyadic:K, else None."""
    from . import doi
    from .functions import parse_function_spec

    sym_spec = args.symbol.lower()
    if sym_spec == "alpha":
        return doi.alpha_symbol(), "alpha", None
    if sym_spec == "beta":
        return doi.beta_symbol(), "beta", None
    if sym_spec == "b0":
        return doi.b0_symbol(args.theta, args.a), "b0", None
    if sym_spec == "b1":
        return doi.b1_symbol(args.theta, args.a), "b1", None
    if sym_spec.startswith("dyadic:"):
        if not args.f:
            raise HolderLabError("dyadic symbols need --f")
        text = sym_spec.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            raise ParameterError(f"dyadic:K needs an integer K, got {text!r}") from None
        f = parse_function_spec(args.f)
        g, _ = doi.dyadic_symbols(f, k)
        return g, f"dyadic:{k}", (f, k)
    raise HolderLabError(f"unknown symbol {args.symbol!r}")


def _upper_route(args, kind, dyadic):
    """The route --method picks for the upper bound: its method name and a
    function that computes the bound, or ("empirical", None).  Every route
    needs p in (0, 1], so auto falls back to the empirical bound alone
    outside it.  A route asked for by name that cannot apply, or a Fourier
    route on a --grid it refuses, raises here, before any draw."""
    from . import doi

    want = args.method
    decompositions = {"alpha": doi.alpha_decomposition, "beta": doi.beta_decomposition}
    if want == "empirical":
        return "empirical", None
    fourier = dict(b=args.b, grid_n=args.grid)
    if want in ("decomposition", "auto") and kind in decompositions:
        method = "decomposition"
        upper = functools.partial(doi.decomposition_bound, decompositions[kind](), args.p)
    elif want == "decomposition":
        raise HolderLabError(f"no separable decomposition built in for {kind}")
    elif kind in ("b0", "b1"):
        method = "fourier-dyadic"
        upper = functools.partial(doi.b0_upper_bound, args.theta, args.a, args.p, **fourier)
    elif dyadic:
        method = "fourier-composite"
        upper = functools.partial(doi.dyadic_upper_bound, *dyadic, args.theta, args.p, **fourier)
    else:
        raise HolderLabError(f"fourier route not applicable to {kind}")
    if not 0.0 < args.p <= 1.0:
        if want == "auto":
            return "empirical", None
        upper()  # each route's bound checks p first, so this raises its message
    if method != "decomposition":
        doi.check_grid(args.grid)
    return method, upper


def cmd_mpnorm(args) -> int:
    from . import doi
    from .ensembles import SeedState

    sym, kind, dyadic = _build_symbol(args)
    method, bound = _upper_route(args, kind, dyadic)
    lower = doi.empirical_mp_lower(sym, args.p, args.dim, args.trials, SeedState(args.seed)).value
    upper = None if bound is None else bound()
    consistent = upper is None or lower <= upper * (1.0 + 1e-8)
    payload = {"symbol": kind, "p": args.p, "lower_le_upper": consistent,
               "lower": lower, "upper": upper, "method": method}
    print(json.dumps(payload, sort_keys=True))
    return 0 if consistent else 3


# --- seminorm --------------------------------------------------------------------


def cmd_seminorm(args) -> int:
    from .functions import d_of_p, parse_function_spec, seminorm

    f = parse_function_spec(args.f)
    est = seminorm(f, args.d, args.theta)
    out = {
        "function": f.name,
        "theta": args.theta,
        "d": args.d,
        "per_order": list(est.per_order),
        "value": est.value,
        "grid": est.grid,
        "edge": list(est.edge),
    }
    if args.p is not None:
        out["d_of_p"] = d_of_p(args.p)
    print(json.dumps(out, sort_keys=True))
    return 0


# --- argument parsing --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="holderlab",
        description="Matrix laboratory for operator Holder-type inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run one inequality verifier")
    # CampaignConfig checks --ineq and --variant: an unknown value exits 2
    # with a message that names the known ones
    pv.add_argument(
        "--ineq", required=True,
        help="verifier name; the README's \"Single verification\" lists them, and an "
        "unknown name exits 2 with the known ones",
    )
    pv.add_argument("--f", default=None, help="function spec, e.g. power:0.5")
    pv.add_argument("--theta", type=float, default=0.5)
    pv.add_argument("--p", type=float, default=1.0)
    pv.add_argument("--norm", default="schatten:1", help="norm spec, e.g. kyfan:3")
    pv.add_argument("--dim", type=int, default=6)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--trials", type=int, default=1)
    pv.add_argument("--variant", default="power", help="reverse flavour: power | expm1")
    pv.add_argument(
        "--spectrum",
        type=_spectrum,
        default=None,
        help="fixed eigenvalues, comma separated; a list that starts with a negative "
        "value takes the form --spectrum=-1,0,1",
    )
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
    pm.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pm.set_defaults(func=cmd_mpnorm)

    ps = sub.add_parser("seminorm", help="weighted-derivative seminorm report")
    ps.add_argument("--f", required=True)
    ps.add_argument("--theta", type=float, required=True)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--p", type=float, default=None)
    ps.set_defaults(func=cmd_seminorm)

    return parser


def main(argv=None) -> int:
    """Run one command line; ``argv`` defaults to ``sys.argv[1:]``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # SeedState needs a seed >= 0
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        args.argv = argv
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
