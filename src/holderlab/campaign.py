"""Randomized verification campaigns over (theta, p, norm, dim) grids.

A campaign is a pure function of its config: every trial derives its own
sub-seed from (root seed, cell index, trial index), so reports are
reproducible bit-for-bit and the max ratio is monotone in the trial count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import product
from numbers import Integral, Real
from typing import Optional

import numpy as np

from . import doi
from .ensembles import (
    Contraction,
    PositivePair,
    SeedState,
    fixed_spectrum,
    gaussian_hermitian,
    ginibre,
    rank_r_steps,
    sample,
    sample_positive_pairs,
)
from .errors import HolderLabError, ParameterError
from .functions import ScalarFunction, parse_function_spec
from .norms import Schatten, parse_norm_spec
from .spectral import as_hermitian, eig_hermitian, from_eigen, op_norm
from . import verify as V

VERIFIERS = (
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
)

# verifiers whose ratio carries an exact constant-1 claim
CONSTANT_ONE_TOL = 1e-8

# complex matrix entries per stack of the batched bks kernel (both matrices
# of every pair): 32 trials at dim 8, 2 at dim 32, 1 at dim 64
STACK_ENTRIES = 4096

NEEDS_FUNCTION = {
    "main",
    "submaj",
    "symmetric",
    "inverse",
    "commutator",
    "quasicommutator",
    "telescope",
}

USES_NORM = {
    "bks",
    "symmetric",
    "inverse",
    "reverse",
    "commutator",
    "quasicommutator",
    "absmap",
}


# the grid axes of a config and the type of their entries
GRID_KEYS = {"thetas": Real, "ps": Real, "norms": str, "dims": Integral}


def _check_integer(key, value, least):
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{key} must be >= {least}, got {value}")


@dataclass(frozen=True)
class CampaignConfig:
    verifier: str
    thetas: tuple
    ps: tuple
    norms: tuple
    dims: tuple
    trials: int
    seed: int
    function: Optional[str] = None
    ensemble: Optional[dict] = None
    refine_steps: int = 0
    variant: str = "power"  # reverse verifier flavour

    def __post_init__(self):
        if self.verifier not in VERIFIERS:
            raise ParameterError(f"unknown verifier {self.verifier!r}; known: {VERIFIERS}")
        for key, kind in GRID_KEYS.items():
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ParameterError(f"{key} must be a list, got {values!r}")
            if not values:
                raise ParameterError("thetas, ps, norms, and dims must be non-empty")
            for v in values:
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ParameterError(f"{key} holds {v!r}, not a {kind.__name__}")
        if min(self.dims) < 1:
            raise ParameterError(f"dims must be >= 1, got {min(self.dims)}")
        for key, least in (("trials", 1), ("seed", 0), ("refine_steps", 0)):
            _check_integer(key, getattr(self, key), least)
        if not isinstance(self.function, (str, type(None))):
            raise ParameterError(f"function must be a spec string, got {self.function!r}")
        if not isinstance(self.ensemble, (dict, type(None))):
            raise ParameterError(f"ensemble must be an object, got {self.ensemble!r}")
        if self.verifier in NEEDS_FUNCTION and not self.function:
            raise ParameterError(f"verifier {self.verifier!r} requires a function spec")
        if self.function:
            parse_function_spec(self.function)
        if self.verifier in USES_NORM:
            for text in self.norms:
                parse_norm_spec(text)

    def cells(self) -> list:
        """The (theta, p, norm, dim) grid in cell-index order."""
        return list(product(self.thetas, self.ps, self.norms, self.dims))

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in GRID_KEYS:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        bad = sorted(set(d) - known)
        if bad:
            raise ParameterError(f"unknown config keys: {bad}")
        missing = sorted(
            {"verifier", "thetas", "ps", "norms", "dims", "trials", "seed"} - set(d)
        )
        if missing:
            raise ParameterError(f"missing config keys: {missing}")
        d = dict(d)
        for key in GRID_KEYS:
            if isinstance(d[key], list):
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass(frozen=True)
class CellReport:
    theta: float
    p: float
    norm: str
    dim: int
    trials: int
    failures: int
    max_ratio: float
    min_ratio: float
    q50: float
    q99: float
    argmax_digest: str
    refined_max: Optional[float] = None
    trajectory: tuple = ()


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    cells: tuple

    def dimension_trend(self) -> dict:
        """Per-(theta, p, norm) slope of log max_ratio against log dim; flat
        slopes are the evidence that the empirical constants are
        dimension-free.  Groups with fewer than two usable dims are skipped."""
        groups: dict = {}
        for c in self.cells:
            groups.setdefault((c.theta, c.p, c.norm), []).append((c.dim, c.max_ratio))
        trends = {}
        for key, pts in groups.items():
            pts = [(d, m) for d, m in pts if m > 0]
            if len({d for d, _ in pts}) < 2:
                continue
            dims = np.log([float(d) for d, _ in pts])
            maxima = np.log([m for _, m in pts])
            trends["theta=%g,p=%g,norm=%s" % key] = float(np.polyfit(dims, maxima, 1)[0])
        return trends

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "cells": [
                {**asdict(c), "trajectory": list(c.trajectory)} for c in self.cells
            ],
            "dimension_trend": self.dimension_trend(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Flat table: one row per cell, 17-significant-digit decimals."""
        lines = ["theta,p,norm,dim,trials,max_ratio,q50,q99,argmax_digest"]
        for c in self.cells:
            lines.append(
                f"{c.theta:.17g},{c.p:.17g},{c.norm},{c.dim},{c.trials},"
                f"{c.max_ratio:.17g},{c.q50:.17g},{c.q99:.17g},{c.argmax_digest}"
            )
        return "\n".join(lines) + "\n"


# --- instance sampling ----------------------------------------------------------


def _default_ensemble(verifier: str) -> dict:
    if verifier in ("bks", "alt"):
        return {"name": "positive_pair", "spectrum_range": [0.0, 1.0]}
    if verifier == "absmap":
        return {"name": "general_pair"}
    return {"name": "gaussian_pair"}


def _positive_pair(dim: int, ens: dict) -> PositivePair:
    lo, hi = ens.get("spectrum_range", [0.0, 1.0])
    return PositivePair(dim, (lo, hi))


def sample_inputs(verifier: str, dim: int, seed: SeedState, ensemble: dict | None):
    """Draw the matrices a verifier consumes, tagged with their structure so
    the refinement stage knows how to perturb them."""
    ens = ensemble or _default_ensemble(verifier)
    name = ens.get("name", "gaussian_pair")

    def pair_from(name):
        if name == "gaussian_pair":
            rng = seed.rng()
            return [("herm", gaussian_hermitian(dim, rng)), ("herm", gaussian_hermitian(dim, rng))]
        if name == "positive_pair":
            x, y = sample(_positive_pair(dim, ens), seed)
            return [("pos", x), ("pos", y)]
        if name == "general_pair":
            rng = seed.rng()
            return [("general", ginibre(dim, rng)), ("general", ginibre(dim, rng))]
        if name == "commuting_pair":
            from .ensembles import CommutingPair

            x, y = sample(CommutingPair(dim), seed)
            return [("herm", x), ("herm", y)]
        if name == "fixed_pair":
            eigenvalues = ens["eigenvalues"]
            kind = "pos" if min(eigenvalues) >= 0 else "herm"
            rng = seed.rng()
            x, _, _ = fixed_spectrum(eigenvalues, rng)
            y, _, _ = fixed_spectrum(eigenvalues, rng)
            return [(kind, x), (kind, y)]
        raise ParameterError(f"unknown ensemble {name!r} for verifier {verifier!r}")

    if verifier in ("main", "submaj", "symmetric", "inverse", "reverse"):
        return pair_from(name if name != "general_pair" else "gaussian_pair")
    if verifier in ("bks", "alt", "absmap"):
        return pair_from(name)
    if verifier == "commutator":
        return [
            ("herm", gaussian_hermitian(dim, seed.rng())),
            ("contraction", sample(Contraction(dim), seed.child(1))),
        ]
    if verifier == "quasicommutator":
        rng = seed.rng()
        return [
            ("herm", gaussian_hermitian(dim, rng)),
            ("herm", gaussian_hermitian(dim, rng)),
            ("contraction", sample(Contraction(dim), seed.child(1))),
        ]
    if verifier == "telescope":
        r = int(ens.get("rank", min(dim, 3)))
        lo, hi = ens.get("magnitudes_range", [1e-2, 1.0])
        b, xs, es = rank_r_steps(dim, r, (lo, hi), seed.rng())
        return [("herm", b)] + [("step", (x, e)) for x, e in zip(xs, es)]
    raise ParameterError(f"unknown verifier {verifier!r}")


def _perturb_inputs(inputs, sigma: float, rng: np.random.Generator):
    out = []
    for kind, m in inputs:
        if kind == "step":
            out.append((kind, m))
            continue
        n = m.shape[0]
        if kind == "herm":
            out.append((kind, m + sigma * gaussian_hermitian(n, rng)))
        elif kind == "pos":
            cand = m + sigma * gaussian_hermitian(n, rng)
            dec = eig_hermitian(as_hermitian(cand))
            vals = np.clip(dec.eigenvalues, 0.0, None)
            out.append((kind, from_eigen(dec.basis, vals)))
        elif kind == "general":
            out.append((kind, m + sigma * ginibre(n, rng)))
        elif kind == "contraction":
            cand = m + sigma * ginibre(n, rng)
            nn = op_norm(cand)
            out.append((kind, cand / nn if nn > 1.0 else cand))
        else:
            raise ParameterError(f"unknown input kind {kind!r}")
    return out


def run_single(
    verifier: str,
    f: ScalarFunction | None,
    theta: float,
    p: float,
    spec,
    inputs,
    digest: str,
    sem_cache: dict,
    variant: str = "power",
) -> V.VerificationRecord:
    """Dispatch one verification on pre-sampled inputs; ``spec`` is the
    cell's parsed norm (None for verifiers that use no norm) and ``variant``
    the flavour of the reverse verifier."""
    mats = [m for k, m in inputs if k != "step"]
    if verifier == "main":
        return V.verify_main(f, theta, p, mats[0], mats[1], sem_cache, digest)
    if verifier == "submaj":
        _, rec = V.verify_submajorization(f, theta, p, mats[0], mats[1], sem_cache, digest)
        return rec
    if verifier == "bks":
        return V.verify_bks(theta, spec, mats[0], mats[1], digest)
    if verifier == "symmetric":
        return V.verify_symmetric(f, theta, p, spec, mats[0], mats[1], sem_cache, digest)
    if verifier == "inverse":
        return V.verify_inverse(f, theta, p, spec, mats[0], mats[1], sem_cache, digest)
    if verifier == "reverse":
        return V.verify_reverse_power(theta, p, spec, mats[0], mats[1], variant, digest)
    if verifier == "commutator":
        return V.verify_commutator(f, theta, p, spec, mats[0], mats[1], sem_cache, digest)
    if verifier == "quasicommutator":
        return V.verify_quasi_commutator(
            f, theta, p, spec, mats[0], mats[1], mats[2], sem_cache, digest
        )
    if verifier == "absmap":
        return V.verify_abs_map(spec, p, mats[0], mats[1], digest)
    if verifier == "alt":
        report = doi.alt_check(mats[0], mats[1], theta, p)
        violation = max(0.0, -report.margin)
        return V.VerificationRecord(
            name="alt",
            lhs=violation,
            rhs=1.0,
            ratio=violation,
            holds_with_constant=report.margin,
            inputs_digest=digest,
            flagged=not report.holds,
        )
    if verifier == "telescope":
        b = mats[0]
        steps = [m for k, m in inputs if k == "step"]
        return V.telescope_finite_rank(f, theta, p, b, steps, digest).record
    raise ParameterError(f"unknown verifier {verifier!r}")


def constant_one_claim(config: CampaignConfig, norm_str: str, p: float) -> bool:
    """Does this cell assert an exact constant-1 inequality?"""
    if config.verifier in ("bks", "telescope"):
        return True
    if config.verifier == "alt":
        return True  # claim is margin >= 0, encoded as ratio <= 0 + tol
    if config.verifier == "absmap":
        spec = parse_norm_spec(norm_str)
        if isinstance(spec, Schatten) and spec.p * p >= 2.0:
            return True
    return False


def violates_constant_one(record: V.VerificationRecord, verifier: str) -> bool:
    if verifier == "alt":
        return record.ratio > CONSTANT_ONE_TOL
    return record.ratio > 1.0 + CONSTANT_ONE_TOL


def _matrix_payload(m: np.ndarray):
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _cell_spec(config: CampaignConfig, norm_str: str):
    return parse_norm_spec(norm_str) if config.verifier in USES_NORM else None


def _trial_seed(config: CampaignConfig, cell_idx: int, trial: int) -> SeedState:
    return SeedState(config.seed, (0, cell_idx, trial))


def _digest(config: CampaignConfig, cell_idx: int, trial: int, dim) -> str:
    return f"{config.seed}:{cell_idx}:{trial}:dim{dim}"


def _scalar_trial(config, f, cell_idx, cell, spec, trial, sem_cache):
    """One trial on the per-trial path: (inputs, record).  This is the oracle
    that replay runs; a failed trial raises its HolderLabError."""
    theta, p, _, dim = cell
    seed = _trial_seed(config, cell_idx, trial)
    inputs = sample_inputs(config.verifier, dim, seed, config.ensemble)
    digest = _digest(config, cell_idx, trial, dim)
    record = run_single(
        config.verifier, f, theta, p, spec, inputs, digest, sem_cache, config.variant
    )
    return inputs, record


def _stack_size(config: CampaignConfig, theta, spec, dim) -> int:
    """Trials per stack of the cell's batched kernel, or 0 when the cell
    takes the per-trial path (a verifier or ensemble without one, or
    parameters that fail every trial).  The config guarantees dim >= 1."""
    ens = config.ensemble or _default_ensemble(config.verifier)
    if config.verifier == "bks" and ens.get("name") == "positive_pair":
        check = V.check_bks_params
    elif config.verifier == "inverse":
        check = V.check_inverse_params
    else:
        return 0
    try:
        check(theta, spec)
    except ParameterError:
        return 0
    return max(1, STACK_ENTRIES // (2 * dim * dim))


def _bks_chunk(config, cell_idx, cell, spec, trials, f, sem_cache):
    """Inputs and records of a chunk of bks trials on positive pairs: the
    pairs are drawn by the stacked sampler."""
    theta, _, _, dim = cell
    pair_spec = _positive_pair(dim, config.ensemble or _default_ensemble(config.verifier))
    pairs = sample_positive_pairs(pair_spec, [_trial_seed(config, cell_idx, t) for t in trials])
    digests = [_digest(config, cell_idx, t, dim) for t in trials]
    records = V.verify_bks_stack(theta, spec, pairs, digests)
    # kept inputs must not pin the stack
    return [[("pos", x.copy()), ("pos", y.copy())] for x, y in pairs], records


def _inverse_chunk(config, cell_idx, cell, spec, trials, f, sem_cache):
    """Inputs and records of a chunk of inverse trials: each trial draws its
    own inputs, and the stacked kernel runs on the pairs they hold."""
    theta, p, _, dim = cell
    inputs = [
        sample_inputs(config.verifier, dim, _trial_seed(config, cell_idx, t), config.ensemble)
        for t in trials
    ]
    pairs = np.stack([[m for _, m in inp] for inp in inputs])
    digests = [_digest(config, cell_idx, t, dim) for t in trials]
    return inputs, V.verify_inverse_stack(f, theta, p, spec, pairs, digests, sem_cache)


STACK_KERNELS = {"bks": _bks_chunk, "inverse": _inverse_chunk}


def trial_outcomes(config: CampaignConfig, cell_idx: int, f, sem_cache: dict):
    """Yield (trial, inputs, record) for every trial of one cell, in trial
    order; inputs and record are None for a failed trial.

    Cells with a batched kernel (bks on positive pairs, inverse) are
    evaluated chunk by chunk: each trial still draws from its own seed, and
    the chunk runs through the kernel together.  A trial the kernel's checks
    reject, every trial of a chunk that raises, and every trial of other
    cells take the per-trial path that replay runs, so each record equals
    replay(config, cell_idx, trial) bit for bit.
    """
    cell = config.cells()[cell_idx]
    theta, _, norm_str, dim = cell
    spec = _cell_spec(config, norm_str)

    def scalar(trial):
        try:
            return _scalar_trial(config, f, cell_idx, cell, spec, trial, sem_cache)
        except HolderLabError:
            return None, None

    size = _stack_size(config, theta, spec, dim)
    chunk = STACK_KERNELS[config.verifier] if size else None
    size = size or config.trials  # without a kernel: one chunk, all per-trial
    for start in range(0, config.trials, size):
        trials = range(start, min(start + size, config.trials))
        inputs, records = [None] * len(trials), [None] * len(trials)
        if chunk is not None:
            try:
                inputs, records = chunk(config, cell_idx, cell, spec, trials, f, sem_cache)
            except (HolderLabError, np.linalg.LinAlgError):
                # e.g. a bad spectrum range or a failed SVD: the per-trial
                # path reproduces the failure trial by trial
                pass
        for trial, inp, rec in zip(trials, inputs, records):
            if rec is None:
                yield (trial, *scalar(trial))
            else:
                yield trial, inp, rec


def run_campaign(config: CampaignConfig):
    """Execute the campaign; returns (CampaignReport, counterexamples).

    Counterexamples are records in constant-1 cells whose ratio exceeds the
    claim beyond tolerance, serialized with their full inputs for replay.
    """
    f = parse_function_spec(config.function) if config.function else None
    sem_cache: dict = {}
    cells = []
    counterexamples = []
    for cell_idx, (theta, p, norm_str, dim) in enumerate(config.cells()):
        claimed = constant_one_claim(config, norm_str, p)
        ratios = []
        failures = 0
        best = (-np.inf, -1, None)  # ratio, trial, inputs
        for trial, inputs, rec in trial_outcomes(config, cell_idx, f, sem_cache):
            if rec is None:
                failures += 1
                continue
            # rhs = 0 records carry the 0/0 convention and stay out of the
            # max/min statistics (flagged ones are persisted below instead)
            if rec.rhs > 0.0:
                ratios.append(rec.ratio)
                if rec.ratio > best[0]:
                    best = (rec.ratio, trial, inputs)
            if rec.flagged or (claimed and violates_constant_one(rec, config.verifier)):
                counterexamples.append(
                    {
                        "record": asdict(rec),
                        "cell": {"theta": theta, "p": p, "norm": norm_str, "dim": dim},
                        "inputs": [
                            {"kind": k, "matrix": _matrix_payload(m)}
                            for k, m in inputs
                            if k != "step"
                        ],
                    }
                )
        arr = np.array(ratios) if ratios else np.array([0.0])
        refined_max = None
        trajectory = ()
        if config.refine_steps > 0 and best[2] is not None:
            refined_max, trajectory = _greedy_refine(
                config, f, theta, p, _cell_spec(config, norm_str), best, cell_idx, sem_cache
            )
        digest = _digest(config, cell_idx, best[1], dim) if best[1] >= 0 else "none"
        cells.append(
            CellReport(
                theta=float(theta),
                p=float(p),
                norm=norm_str,
                dim=int(dim),
                trials=config.trials,
                failures=failures,
                max_ratio=float(arr.max()),
                min_ratio=float(arr.min()),
                q50=float(np.quantile(arr, 0.5)),
                q99=float(np.quantile(arr, 0.99)),
                argmax_digest=digest,
                refined_max=refined_max,
                trajectory=trajectory,
            )
        )
    return CampaignReport(config=config, cells=tuple(cells)), counterexamples


def _greedy_refine(config, f, theta, p, spec, best, cell_idx, sem_cache):
    """Hill-climb from the argmax instance with shrinking Gaussian steps."""
    ratio, _, inputs = best
    scale = max((op_norm(m) for k, m in inputs if k != "step"), default=1.0)
    sigma = 0.1 * scale
    trajectory = [float(ratio)]
    for step in range(config.refine_steps):
        rng = SeedState(config.seed, (1, cell_idx, step)).rng()
        try:
            cand = _perturb_inputs(inputs, sigma, rng)
            rec = run_single(
                config.verifier, f, theta, p, spec, cand, "refine", sem_cache, config.variant
            )
        except HolderLabError:
            sigma *= 0.5
            continue
        if rec.ratio > ratio:
            ratio, inputs = rec.ratio, cand
            sigma *= 0.9
        else:
            sigma *= 0.6
        trajectory.append(float(ratio))
    return float(ratio), tuple(trajectory)


def replay(config: CampaignConfig, cell_idx: int, trial: int) -> V.VerificationRecord:
    """Re-run one (cell, trial) pair of a campaign; reproduces the record."""
    cell = config.cells()[cell_idx]
    f = parse_function_spec(config.function) if config.function else None
    spec = _cell_spec(config, cell[2])
    return _scalar_trial(config, f, cell_idx, cell, spec, trial, {})[1]
