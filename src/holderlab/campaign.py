"""Randomized verification campaigns over (theta, p, norm, dim) grids.

A campaign is a pure function of its config.  Trial t at dim n draws its
inputs from the sub-seed (root seed, 3, n, t), and every (theta, p, norm)
cell of that dim is evaluated on those same inputs (common random numbers),
so reports are reproducible bit for bit, the max ratio is monotone in the
trial count, and the cells of one dim compare paired samples.  A cell's
outcomes do not depend on the other cells of the config.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, product
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .ensembles import (
    ENSEMBLES,
    STACK_ENTRIES,
    SeedState,
    gaussian_hermitian,
    ginibre,
    sample_ensemble,
)
from .errors import HolderLabError, ParameterError
from .functions import parse_function_spec
from .norms import Schatten, parse_norm_spec
from .spectral import as_hermitian, eig_hermitian, from_eigen, op_norm
from . import verify as V

# a record exceeds its verifier's claimed constant when ratio > claim + tol
CONSTANT_ONE_TOL = 1e-8

# the format of report.json and manifest.json: 9 since an inverse record
# whose side leaves the float range fails its trial
REPORT_FORMAT = 9
# the norm label that a verifier taking no norm accepts besides a norm spec
NO_NORM = "-"


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
        if not isinstance(self.verifier, str):
            raise ParameterError(f"verifier must be a string, got {self.verifier!r}")
        if self.verifier not in VERIFIERS:
            raise ParameterError(f"unknown verifier {self.verifier!r}; known: {tuple(VERIFIERS)}")
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
        for v in (*self.thetas, *self.ps):
            if not math.isfinite(v):
                raise ParameterError(f"thetas and ps must be finite, got {v!r}")
        if min(self.ps) <= 0:
            raise ParameterError(f"ps must be positive, got {min(self.ps)!r}")
        for key, least in (("trials", 1), ("seed", 0), ("refine_steps", 0)):
            _check_integer(key, getattr(self, key), least)
        if not isinstance(self.function, (str, type(None))):
            raise ParameterError(f"function must be a spec string, got {self.function!r}")
        if not isinstance(self.ensemble, (dict, type(None))):
            raise ParameterError(f"ensemble must be an object, got {self.ensemble!r}")
        if VERIFIERS[self.verifier].needs_function and not self.function:
            raise ParameterError(f"verifier {self.verifier!r} requires a function spec")
        if self.function:
            parse_function_spec(self.function)
        for text in self.norms:
            if text != NO_NORM or VERIFIERS[self.verifier].uses_norm:
                parse_norm_spec(text)
        if not isinstance(self.variant, str) or self.variant not in V.REVERSE_VARIANTS:
            raise ParameterError(
                f"variant must be one of {tuple(V.REVERSE_VARIANTS)}, got {self.variant!r}"
            )
        self._check_ensemble()

    def _check_ensemble(self):
        """Reject an ensemble the verifier does not draw from or a key its
        draw does not read, then run its check once per distinct dim, which
        judges the values without a draw."""
        names = VERIFIERS[self.verifier].ensembles
        ens = _ensemble(self.verifier, self.ensemble)
        if ens["name"] not in names:
            raise ParameterError(
                f"ensemble name {ens['name']!r} is not drawn by verifier "
                f"{self.verifier!r}, which draws from {names}"
            )
        check, _, keys = ENSEMBLES[ens["name"]]
        bad = sorted(set(ens) - {"name", *keys})
        if bad:
            raise ParameterError(f"ensemble {ens['name']!r} reads only {keys}, not {bad}")
        for dim in sorted(set(self.dims)):
            try:
                kinds = check(dim, ens)
            except (ParameterError, TypeError, ValueError) as exc:
                raise ParameterError(f"ensemble {ens['name']!r} at dim {dim}: {exc}") from exc
            if VERIFIERS[self.verifier].positive and set(kinds) != {"pos"}:
                raise ParameterError(
                    f"verifier {self.verifier!r} needs positive semidefinite inputs, but "
                    f"ensemble {ens!r} draws inputs of kinds {kinds} at dim {dim}"
                )

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
        if not isinstance(d, dict):
            raise ParameterError(f"config must be a JSON object, got {d!r}")
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
            "report_format": REPORT_FORMAT,
            "config": self.config.to_dict(),
            "cells": [{**vars(c), "trajectory": list(c.trajectory)} for c in self.cells],
            "dimension_trend": self.dimension_trend(),
        }

    def to_json(self) -> str:
        return indented_json(self.to_dict())

    def to_csv(self) -> str:
        """Flat table: one row per cell, 17-significant-digit decimals."""
        lines = ["theta,p,norm,dim,trials,max_ratio,q50,q99,argmax_digest"]
        for c in self.cells:
            lines.append(
                f"{c.theta:.17g},{c.p:.17g},{c.norm},{c.dim},{c.trials},"
                f"{c.max_ratio:.17g},{c.q50:.17g},{c.q99:.17g},{c.argmax_digest}"
            )
        return "\n".join(lines) + "\n"


# --- JSON outputs ---------------------------------------------------------------

INDENT = "  "
CONTAINERS = (dict, list, tuple)


@functools.cache
def _encode_at(level: int) -> Callable:
    """The C encoder's JSON text of a value whose members would sit at indent
    ``level``: the members of a container are joined by a comma, a newline
    and that indent, and have no newline before the first or after the last.
    An indent forces json's pure-Python encoder, a separator does not."""
    return json.JSONEncoder(sort_keys=True, separators=("," + "\n" + INDENT * level, ": ")).encode


def _flat(values) -> bool:
    """Every member a scalar or an empty container."""
    return not any([v for v in values if isinstance(v, CONTAINERS)])


def indented_json(obj) -> str:
    """The text ``json.dumps`` gives of ``obj`` with ``indent=2`` and
    ``sort_keys=True``, byte for byte, for a tree of JSON values, in a
    fraction of its time.  A flat container (_flat) is one C-encoder call,
    wrapped in its newlines; so is a list of non-empty flat dicts, such as
    the cells of a report, whose boundaries "},\n{" are then re-indented by
    one replace.  That is exact because an encoded string holds no raw
    newline and every dict item starts with a quote, so the boundaries are
    the only matches.  Anything else recurses."""
    return _indented(obj, 1)


def _indented(obj, level: int) -> str:
    """indented_json of ``obj`` at indent ``level - 1``, its members at ``level``."""
    encode = _encode_at(level)
    if not (isinstance(obj, CONTAINERS) and obj):
        return encode(obj)
    inner, outer = "\n" + INDENT * level, "\n" + INDENT * (level - 1)
    is_dict = isinstance(obj, dict)
    if _flat(obj.values() if is_dict else obj):
        text = encode(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        # a non-string key is encoded as the key of a one-item dict
        items = [
            (encode(k) if isinstance(k, str) else encode({k: 0})[1:-4]) + ": "
            + _indented(v, level + 1)
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    dicts = all(isinstance(v, dict) and v for v in obj)
    if dicts and _flat(chain.from_iterable(map(dict.values, obj))):
        deeper = inner + INDENT
        body = _encode_at(level + 1)(obj)[2:-2]
        body = body.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + body + inner + "}" + outer + "]"
    return "[" + inner + ("," + inner).join(_indented(v, level + 1) for v in obj) + outer + "]"


# --- instance sampling ----------------------------------------------------------


def _ensemble(verifier: str, ensemble: dict | None) -> dict:
    """The config's ensemble with its name; without one, the verifier's default."""
    return {"name": VERIFIERS[verifier].ensembles[0], **(ensemble or {})}


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


# --- the verifier table ---------------------------------------------------------

# the pair ensembles of Hermitian inputs, and those of positive inputs
HERMITIAN_PAIRS = ("gaussian_pair", "positive_pair", "commuting_pair", "fixed_pair")
POSITIVE_PAIRS = ("positive_pair", "fixed_pair")


@dataclass(frozen=True)
class Verifier:
    """Everything the campaign engine knows about one verifier.  Its kernel is
    looked up on ``verify`` (as ``V``) when it runs, so rebinding
    ``campaign.V`` or a ``verify`` function (a test's spy, perfbench's
    tracer) reaches it."""

    # the name of the verify.verify_<name>_stack kernel (f, entries, stack, dec)
    # of Outcomes (cells, trials); verify._check_<name> is its cell check
    kernel: str
    # the ensembles.ENSEMBLES names the verifier draws from; the first is the default
    ensembles: tuple = HERMITIAN_PAIRS
    needs_function: bool = False
    # the inputs must be positive semidefinite: a config whose draw tags its
    # inputs otherwise is rejected at load
    positive: bool = False
    uses_norm: bool = False  # else the kernel gets spec None
    # (spec, p) -> the constant the ratio is claimed not to exceed, or None
    claim: Callable = lambda spec, p: None


VERIFIERS = {
    "main": Verifier("verify_main_stack", needs_function=True),
    "bks": Verifier(
        "verify_bks_stack", POSITIVE_PAIRS, positive=True, uses_norm=True, claim=lambda spec, p: 1.0
    ),
    "submaj": Verifier("verify_submaj_stack", needs_function=True),
    "symmetric": Verifier("verify_symmetric_stack", needs_function=True, uses_norm=True),
    "inverse": Verifier("verify_inverse_stack", needs_function=True, uses_norm=True),
    "reverse": Verifier("verify_reverse_stack", uses_norm=True),
    # a commutator [f(X), B] is the quasi-commutator f(X)B - Bf(X)
    "commutator": Verifier(
        "verify_quasicommutator_stack",
        ("hermitian_contraction",),
        needs_function=True,
        uses_norm=True,
    ),
    "quasicommutator": Verifier(
        "verify_quasicommutator_stack",
        ("hermitian_pair_contraction",),
        needs_function=True,
        uses_norm=True,
    ),
    # the classical constant 1 holds in the p-th power of S_q, which is S_qp, for qp >= 2
    "absmap": Verifier(
        "verify_absmap_stack",
        ("general_pair",) + HERMITIAN_PAIRS,
        uses_norm=True,
        claim=lambda spec, p: 1.0 if isinstance(spec, Schatten) and spec.p * p >= 2.0 else None,
    ),
    # the claim is margin >= 0, recorded as ratio = max(0, -margin)
    "alt": Verifier(
        "verify_alt_stack", POSITIVE_PAIRS, positive=True, claim=lambda spec, p: 0.0
    ),
    "telescope": Verifier(
        "verify_telescope_stack",
        ("rank_one_steps",),
        needs_function=True,
        claim=lambda spec, p: 1.0,
    ),
}


def _matrix_payload(m: np.ndarray):
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _kernel_cells(config: CampaignConfig) -> list:
    """Per cell of the grid, the (theta, p, spec) its check gets: the parsed
    norm, or None for a verifier that takes no norm; each distinct norm is
    parsed once."""
    uses_norm = VERIFIERS[config.verifier].uses_norm
    specs = {norm: parse_norm_spec(norm) if uses_norm else None for norm in config.norms}
    return [(theta, p, specs[norm]) for theta, p, norm, _ in config.cells()]


def _entries(config: CampaignConfig, f, cells) -> list:
    """Per (theta, p, spec) of ``cells``, the entry the verifier's check gives
    its kernel, or the HolderLabError that makes the cell fail every trial;
    f's seminorm is estimated once per distinct (d, theta)."""
    check, sem = V._check_of(VERIFIERS[config.verifier].kernel), V._seminorms(f)
    entries = []
    for cell in cells:
        try:
            entries.append(check(sem, *cell, config.variant))
        except HolderLabError as exc:
            entries.append(exc)
    return entries


def _trial_seed(config: CampaignConfig, dim, trial: int) -> SeedState:
    """The sub-seed trial ``trial`` draws its inputs from at ``dim``, shared
    by every cell of that dim; tag 3 keeps it apart from refinement (1), and
    tag 2 is reserved: nothing draws from it."""
    return SeedState(config.seed, (3, dim, trial))


def _digest(config: CampaignConfig, cell_idx: int, trial: int, dim) -> str:
    return f"{config.seed}:{cell_idx}:{trial}:dim{dim}"


def _stack_size(dim, inputs=2) -> int:
    """Trials per stack at this dim, for ``inputs`` matrices per trial: 32
    pairs at dim 8, 2 at dim 32, 1 at dim 64; the config guarantees dim >= 1."""
    return max(1, STACK_ENTRIES // (inputs * dim * dim))


def _record_name(config: CampaignConfig) -> str:
    """The name of the verifier's records; reverse's carry its variant."""
    return f"reverse:{config.variant}" if config.verifier == "reverse" else config.verifier


def _outcomes(config: CampaignConfig, f, entries, trials, stack, dec=None):
    """Yield (trials, stack, outcomes): the Outcomes (cells, trials) of a stack
    of ``trials``, drawn with decomposition ``dec``, in the cells of
    ``entries`` by the verifier's kernel.  A LinAlgError reruns a stack of
    several trials one trial at a time, each yielded on its own, then a trial
    of several cells one cell at a time, reassembling the rows, and is the
    error V.lapack_error gives of one trial in one cell."""
    kernel = getattr(V, VERIFIERS[config.verifier].kernel)
    try:
        outcomes = kernel(f, entries, stack, dec)
    except np.linalg.LinAlgError as exc:
        if len(stack) > 1:
            for i in range(len(stack)):
                part = slice(i, i + 1)
                parts = trials[part], stack[part], None if dec is None else dec[part]
                yield from _outcomes(config, f, entries, *parts)
            return
        if len(entries) > 1:
            outcomes = V.Outcomes.of_cells(
                [next(_outcomes(config, f, [entry], trials, stack, dec))[2] for entry in entries]
            )
        else:
            outcomes = V.Outcomes.failing(V.lapack_error(exc))
    yield trials, stack, outcomes


def _draw(config: CampaignConfig, dim, trials):
    """The kinds, the stack (T, k, n, n) of the inputs of ``trials`` at
    ``dim``, and the decomposition the draw built them from, or None.  Each
    trial draws from its own sub-seed, so its inputs are the same bits
    whichever trials are drawn with it."""
    ens = _ensemble(config.verifier, config.ensemble)
    return sample_ensemble(ens, dim, [_trial_seed(config, dim, t) for t in trials])


def _stacks(config: CampaignConfig, dim, entries, f, trials=None):
    """Yield (trials, kinds, stack, outcomes) for every stack of trials at
    ``dim`` in the cells of ``entries``, valid cells of that dim: the trials
    of the stack, the kinds of their inputs, the inputs (T, k, n, n) and the
    Outcomes (cells, T).  All trials, or the listed ``trials`` in that order,
    are drawn once for all the cells, in stacks of _stack_size(dim, inputs)
    for the ensemble's number of inputs per trial."""
    ens = _ensemble(config.verifier, config.ensemble)
    trials = range(config.trials) if trials is None else trials
    size = _stack_size(dim, len(ENSEMBLES[ens["name"]].check(dim, ens)))
    for start in range(0, len(trials), size):
        chunk = trials[start : start + size]
        kinds, stack, dec = _draw(config, dim, chunk)
        for part, part_stack, outcomes in _outcomes(config, f, entries, chunk, stack, dec):
            yield part, kinds, part_stack, outcomes


# the quantiles a cell reports, taken as numpy's default (linear) method does
QUANTILES = np.array([0.5, 0.99])


def _ratio_statistics(ratios: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """Per row of ``ratios`` (cells, N), the (max, min, q50, q99) of its
    ``counted`` entries, from one sort of the rows.  They are the bits of
    arr.max(), arr.min() and np.quantile(arr, [0.5, 0.99]) on the row's
    counted entries arr, -0.0 aside: the virtual index (n - 1) q, its
    neighbours, and numpy's lerp.  A row with a NaN counted entry reads NaN
    in all four, and a row with none reads those of [0.0]."""
    rows = np.arange(len(ratios))
    n = np.count_nonzero(counted, axis=1)
    has_nan = np.any(counted & np.isnan(ratios), axis=1)
    # uncounted entries sort last as NaN; a row with none holds [0.0]
    ordered = np.sort(np.where(counted, ratios, np.nan), axis=1)
    ordered[n == 0, 0] = 0.0
    last = np.maximum(n, 1)[:, None] - 1
    virtual = last * QUANTILES
    below = np.floor(virtual)
    gamma = virtual - below
    lo = below.astype(np.intp)
    a, b = ordered[rows[:, None], lo], ordered[rows[:, None], np.minimum(lo + 1, last)]
    with np.errstate(invalid="ignore", over="ignore"):
        diff = b - a
        quantiles = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    stats = np.column_stack([ordered[rows, last[:, 0]], ordered[:, 0], quantiles])
    stats[has_nan] = np.nan
    return stats


class _Tally:
    """The bookkeeping of the cells of one dim as arrays (cells, trials), so
    a stack costs a fixed number of array operations whatever its number of
    cells.  ``cells`` are the (theta, p, spec) of the grid cells ``cell_idxs``."""

    def __init__(self, config: CampaignConfig, cell_idxs, cells):
        self.config, self.cell_idxs, self.cells = config, cell_idxs, cells
        grid = config.cells()
        self.grid_cells = [grid[i] for i in cell_idxs]  # (theta, p, norm, dim)
        claim = VERIFIERS[config.verifier].claim
        claims = [claim(spec, p) for _, p, spec in cells]
        # a ratio above its cell's limit breaches the claim; no claim, no limit
        self.limit = np.array([np.inf if c is None else c + CONSTANT_ONE_TOL for c in claims])
        shape = (len(cells), config.trials)
        self.ok = np.zeros(shape, dtype=bool)
        self.counted = np.zeros(shape, dtype=bool)
        self.ratio = np.zeros(shape)
        self.counterexamples = [[] for _ in cells]  # per cell, in trial order

    def add(self, trials, kinds, stack, outcomes):
        ok, ratio = outcomes.ok, outcomes.ratio
        self.ok[:, trials] = ok
        # rhs = 0 records carry the 0/0 convention and stay out of the
        # statistics (flagged ones are persisted below instead)
        self.counted[:, trials] = ok & (outcomes.rhs > 0.0)
        self.ratio[:, trials] = ratio
        bad = ok & (outcomes.flagged | (ratio > self.limit[:, None]))
        for c, i in zip(*np.nonzero(bad)):
            theta, p, norm_str, dim = self.grid_cells[c]
            digest = _digest(self.config, self.cell_idxs[c], trials[i], dim)
            record = outcomes.record(c, i, _record_name(self.config), digest)
            self.counterexamples[c].append(
                {
                    "record": asdict(record),
                    "cell": {"theta": theta, "p": p, "norm": norm_str, "dim": dim},
                    "inputs": [
                        {"kind": k, "matrix": _matrix_payload(m)}
                        for k, m in zip(kinds, stack[i])
                        if k != "step"
                    ],
                }
            )

    def summary(self):
        """Per cell (failures, (max, min, q50, q99), argmax ratio, argmax
        trial), the argmax the first trial with the strictly largest counted
        ratio, never a NaN one; trial -1 when there is none."""
        failures = np.count_nonzero(~self.ok, axis=1)
        candidates = np.where(self.counted & ~np.isnan(self.ratio), self.ratio, -np.inf)
        best = np.argmax(candidates, axis=1)
        best_ratio = candidates[np.arange(len(best)), best]
        best = np.where(best_ratio > -np.inf, best, -1)
        stats = _ratio_statistics(self.ratio, self.counted)
        return zip(failures.tolist(), stats.tolist(), best_ratio.tolist(), best.tolist())


def run_campaign(config: CampaignConfig):
    """Execute the campaign; returns (CampaignReport, counterexamples).

    Each cell is judged once, before any draw, and one its check refuses
    fails every trial; the valid cells of each dim are evaluated together on
    one draw per trial.  Counterexamples are flagged records and records
    above their cell's claimed constant beyond tolerance, serialized with
    their full inputs for replay, in cell order.
    """
    f = parse_function_spec(config.function) if config.function else None
    grid = config.cells()
    kernel_cells = _kernel_cells(config)
    entries = _entries(config, f, kernel_cells)
    groups: dict = {}  # the valid cells of a dim, and the others
    for cell_idx, cell in enumerate(grid):
        valid = not isinstance(entries[cell_idx], HolderLabError)
        groups.setdefault((cell[3], valid), []).append(cell_idx)
    summaries, counterexamples = [None] * len(grid), [None] * len(grid)
    for (dim, valid), cell_idxs in groups.items():
        tally = _Tally(config, cell_idxs, [kernel_cells[i] for i in cell_idxs])
        stacks = _stacks(config, dim, [entries[i] for i in cell_idxs], f) if valid else ()
        for trials, kinds, stack, outcomes in stacks:
            tally.add(trials, kinds, stack, outcomes)
        for cell_idx, summary, cxs in zip(cell_idxs, tally.summary(), tally.counterexamples):
            summaries[cell_idx], counterexamples[cell_idx] = summary, cxs
    cells = []
    for cell_idx, (theta, p, norm_str, dim) in enumerate(grid):
        failures, (max_ratio, min_ratio, q50, q99), ratio, trial = summaries[cell_idx]
        refined_max = None
        trajectory = ()
        if config.refine_steps > 0 and trial >= 0:
            refined_max, trajectory = _greedy_refine(
                config, f, entries[cell_idx], dim, ratio, trial, cell_idx
            )
        cells.append(
            CellReport(
                theta=float(theta),
                p=float(p),
                norm=norm_str,
                dim=int(dim),
                trials=config.trials,
                failures=failures,
                max_ratio=max_ratio,
                min_ratio=min_ratio,
                q50=q50,
                q99=q99,
                argmax_digest=_digest(config, cell_idx, trial, dim) if trial >= 0 else "none",
                refined_max=refined_max,
                trajectory=trajectory,
            )
        )
    counterexamples = [cx for cxs in counterexamples for cx in cxs]
    return CampaignReport(config=config, cells=tuple(cells)), counterexamples


def _greedy_refine(config, f, entry, dim, ratio, trial, cell_idx):
    """Hill-climb with shrinking Gaussian steps from the argmax instance, trial
    ``trial`` of ratio ``ratio`` in the cell of ``entry``, whose inputs are
    redrawn from the trial's own sub-seed (the kernel decomposes each step's)."""
    kinds, (mats,), _ = _draw(config, dim, [trial])
    inputs = list(zip(kinds, mats))
    scale = max((op_norm(m) for k, m in inputs if k != "step"), default=1.0)
    sigma = 0.1 * scale
    trajectory = [ratio]
    for step in range(config.refine_steps):
        rng = SeedState(config.seed, (1, cell_idx, step)).rng()
        try:
            cand = _perturb_inputs(inputs, sigma, rng)
        except HolderLabError:
            sigma *= 0.5
            continue
        stack = np.array([[m for _, m in cand]])
        ((_, _, outcomes),) = _outcomes(config, f, [entry], [0], stack)
        if not outcomes.ok[0, 0]:
            sigma *= 0.5
            continue
        if outcomes.ratio[0, 0] > ratio:
            ratio, inputs = float(outcomes.ratio[0, 0]), cand
            sigma *= 0.9
        else:
            sigma *= 0.6
        trajectory.append(float(ratio))
    return float(ratio), tuple(trajectory)


def replay(config: CampaignConfig, cell_idx: int, trial: int) -> V.VerificationRecord:
    """Re-run one (cell, trial) pair of a campaign on a stack of one:
    returns its record, or raises its HolderLabError."""
    f = parse_function_spec(config.function) if config.function else None
    dim = config.cells()[cell_idx][3]
    (entry,) = _entries(config, f, [_kernel_cells(config)[cell_idx]])
    if isinstance(entry, HolderLabError):
        raise entry
    ((_, _, _, outcomes),) = _stacks(config, dim, [entry], f, [trial])
    return outcomes.record(0, 0, _record_name(config), _digest(config, cell_idx, trial, dim))
