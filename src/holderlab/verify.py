"""Verifiers for the operator inequalities: each computes both sides of one
estimate on concrete matrices and records the ratio.

Ratio conventions: every record satisfies ratio = lhs / rhs with 0/0 -> 0.
For the reverse-direction estimates (inverse functions, reverse powers) the
verifier picks lhs/rhs so that small ratios, not large ones, witness the
constant; each docstring states the orientation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    CapabilityError,
    DomainError,
    EigensolverError,
    HolderLabError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from .functions import ScalarFunction, d_of_p, seminorm, signed_expm1
from .norms import (
    SUBMAJ_TOL,
    NormSpec,
    PowerOf,
    Schatten,
    _submajorization_margin,
    _unit,
    check_fully_symmetric,
    least_domination_constant,
    norm_of_profile,
    submajorizes,
)
from .spectral import (
    ZERO_TOL_COEFF,
    abs_matrix,
    apply_function,
    apply_stack,
    as_hermitian,
    as_square,
    cayley,
    eigh_stack,
    from_eigen,
    hermitian_stack,
    op_norm,
    psd_stack,
)

ABS_TOL_COEFF = 1e-12


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    lhs: float
    rhs: float
    ratio: float
    holds_with_constant: Optional[float] = None
    inputs_digest: str = ""
    flagged: bool = False


@dataclass(frozen=True)
class Outcomes:
    """The outcomes of a stack of T trials in C cells: the ok mask (C, T) of
    the pairs that pass every check, a function from a failed pair (c, i) to
    the error of its first failed check, and arrays (C, T) of the sides,
    ratios, flags and constants, which mean nothing for a failed pair.
    ``profiles`` are the (upper, lower) (C, T, n) submajorizations compare."""

    ok: np.ndarray
    error: Callable
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    flagged: np.ndarray
    constants: Optional[np.ndarray] = None
    profiles: Optional[tuple] = None

    @classmethod
    def judged(cls, rows, lhs, rhs, mats, constants=None, profiles=None) -> "Outcomes":
        """The outcomes of sides ``lhs`` and ``rhs`` (C, T) whose cell rows are
        in ``rows``.  Ratio = lhs / rhs with 0/0 -> 0; a pair (c, i) that
        passes its checks with rhs <= 0 is flagged when lhs exceeds
        ABS_TOL_COEFF * n * (1 + the largest operator norm of trial i's inputs
        mats[i]), computed once per such trial, however many cells share it."""
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        fail = np.zeros(lhs.shape[1], dtype=bool)
        rows = [(fail, lambda i, e=r: e) if isinstance(r, HolderLabError) else r for r in rows]
        ok = np.array([row[0] for row in rows])
        positive = rhs > 0.0
        with np.errstate(all="ignore"):
            ratio = np.where(positive, lhs / rhs, 0.0)
        degenerate = ok & ~positive
        flagged = np.zeros(ok.shape, dtype=bool)
        for i in np.flatnonzero(degenerate.any(axis=0)):
            scale = max((op_norm(m) for m in mats[i]), default=0.0)
            tol = ABS_TOL_COEFF * mats.shape[-1] * (1.0 + scale)
            flagged[:, i] = degenerate[:, i] & (lhs[:, i] > tol)
        error = lambda idx: rows[idx[0]][1](idx[1])
        return cls(ok, error, lhs, rhs, ratio, flagged, constants, profiles)

    @classmethod
    def failing(cls, errors, size) -> "Outcomes":
        """The outcomes of cells that fail all ``size`` trials with their ``errors``."""
        return cls.judged(errors, *np.full((2, len(errors), size), math.nan), None)

    @classmethod
    def of_cells(cls, parts) -> "Outcomes":
        """The outcomes of a stack whose cell rows are those of ``parts``, the
        one-cell Outcomes of that stack; profiles are left out."""
        keys = ("ok", "lhs", "rhs", "ratio", "flagged")
        rows = {k: np.concatenate([getattr(o, k) for o in parts]) for k in keys}
        if any(o.constants is not None for o in parts):
            nan = np.full(parts[0].ok.shape, math.nan)
            constants = [nan if o.constants is None else o.constants for o in parts]
            rows["constants"] = np.concatenate(constants)
        return cls(error=lambda idx: parts[idx[0]].error((0, idx[1])), **rows)

    def record(self, c, i, name, digest="") -> VerificationRecord:
        """The record of trial i in cell c, named ``name``; raises its error if it failed."""
        if not self.ok[c, i]:
            raise self.error((c, i))
        constant = None if self.constants is None else float(self.constants[c, i])
        sides = (float(self.lhs[c, i]), float(self.rhs[c, i]), float(self.ratio[c, i]))
        return VerificationRecord(name, *sides, constant, digest, bool(self.flagged[c, i]))


def _seminorm_value(f, d, theta, cache=None):
    """The seminorm every difference estimate scales by; raises
    CapabilityError when it is infinite or f lacks d derivatives."""
    cache = {} if cache is None else cache
    key = (f.name, d, theta)
    if key not in cache:
        cache[key] = seminorm(f, d, theta).value
    if not np.isfinite(cache[key]):
        raise CapabilityError(f"{f.name}: seminorm is infinite at theta={theta}, d={d}")
    return cache[key]


def _stack_of_one(mats) -> np.ndarray:
    """The inputs ``mats`` of one trial as a stack (1, k, n, n); raises
    ShapeError unless they are square matrices of one size."""
    mats = [as_square(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise ShapeError(f"inputs of different shapes {[m.shape for m in mats]}")
    return np.stack(mats)[None]


def _one(kernel, f, theta, p, spec, mats, sem_cache, variant) -> Outcomes:
    """The outcomes ``kernel`` gives the trial of inputs ``mats`` in a stack of
    one trial and the one cell (theta, p, spec), or raise its error; LAPACK's
    failure to converge is the EigensolverError a campaign records for it."""
    stack = _stack_of_one(mats)
    try:
        outcomes = kernel(f, [(theta, p, spec)], stack, sem_cache, variant)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK failed to converge: {exc}") from exc
    if not outcomes.ok[0, 0]:
        raise outcomes.error((0, 0))
    return outcomes


# --- the shared steps of the stack kernels ------------------------------------------
#
# A kernel verify_<name>_stack(f, cells, stack, sem_cache, variant) evaluates
# a stack of T trials, one complex array (T, k, n, n) as an ensembles draw
# yields it, in the C (theta, p, spec) ``cells``, and returns one Outcomes
# (C, T), judged once.  A pair fails with the error of the first check it
# fails, in the order the kernel's docstring gives; a cell whose parameter
# check raises fails every trial with that error, and no other cell is
# affected.  A kernel ignores the parameters its verifier does not take, and
# numpy.linalg.LinAlgError propagates.  The work that does not depend on the
# cell (checks, eigendecompositions, images, SVDs) runs once per stack if
# some cell passes its parameter checks, and each norm once over the profiles
# of every theta (_norm_rows).  A check is a pair (ok mask (T, k), function
# from an index (trial, input) to the error); a row is a pair (ok mask (T,),
# function from a trial to the error), or the error of a cell's every trial.


def _per_cell(cells, check):
    """Per cell (theta, p, spec), the HolderLabError ``check(theta, p, spec)``
    raises or None, and what it returns or None."""
    errors, values = [None] * len(cells), [None] * len(cells)
    for c, cell in enumerate(cells):
        try:
            values[c] = check(*cell)
        except HolderLabError as exc:
            errors[c] = exc
    return errors, values


def _first_failures(size, *groups):
    """The row of the first failed check of each of ``size`` trials.  The
    groups of checks run in turn; within a group, input 0 takes every check,
    then input 1, and so on."""
    failed = [None] * size
    for group in groups:
        for j in range(group[0][0].shape[1]):
            for ok, error in group:
                for i in np.flatnonzero(~ok[:, j]):
                    if failed[i] is None:
                        failed[i] = error((i, j))
    return np.array([e is None for e in failed]), failed.__getitem__


def _norm_rows(entries, size, *profiles) -> list:
    """Per function ``profiles``, the rows (C, size): per cell the norms
    ``spec`` of the profiles (size, n) ``profiles(key)`` of its entry (spec,
    key), or NaN for an entry None.  A function is called once per key, and
    each spec takes one norm_of_profile call over the profiles of every key."""
    specs, keys = {}, {}
    for entry in filter(None, entries):
        specs.setdefault(entry[0], len(specs))
        keys.setdefault(entry[1], len(keys))
    index = [-1 if e is None else specs[e[0]] * len(keys) + keys[e[1]] for e in entries]
    rows = []
    for profile in profiles:
        stacked = np.stack([profile(key) for key in keys]) if keys else None
        table = [norm_of_profile(stacked, spec) for spec in specs]
        rows.append(np.concatenate(table + [np.full((1, size), math.nan)])[index])
    return rows


def _profiles(*mats) -> np.ndarray:
    """The singular values of every trial's matrices in one batched SVD:
    (T, len(mats), n) for stacks (T, n, n)."""
    return np.linalg.svd(np.stack(mats, axis=1), compute_uv=False)


def _hermitian_profiles(*mats) -> np.ndarray:
    """_profiles of Hermitian matrices: |eigvalsh| sorted descending, C-contiguous,
    as a reversed view would change the order the norms sum in.  A non-finite
    eigenvalue raises numpy.linalg.LinAlgError, as the SVD does."""
    w = np.abs(np.linalg.eigvalsh(np.stack(mats, axis=1)))
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("eigvalsh of a non-finite matrix")
    return -np.sort(-w, axis=-1)


def _seminorm_front(f, mats, sem_cache, profiles, cells, norm=PowerOf):
    """The shared front of the seminorm estimates on a stack (T, k, n, n) of
    Hermitian inputs in ``cells``: the symmetrized inputs h, the profiles
    ``profiles(h, images of h under f)`` or None, and per cell its row, its
    entry (norm(spec, p), theta) or None, and its seminorm.  A cell fails
    every trial with the error of norm(spec, p), else each trial with that of
    its first failed check: each input Hermitian, the seminorm at d_of_p(p),
    then per input its reconstruction and f finite on its spectrum."""
    h, *hermitian = hermitian_stack(mats)
    rows, entries = _per_cell(cells, lambda theta, p, spec: (norm(spec, p), theta))
    sems, sv = [math.nan] * len(cells), None
    for c, (theta, p, _) in enumerate(cells):
        if rows[c]:
            continue
        try:
            sems[c] = _seminorm_value(f, d_of_p(p), theta, sem_cache)
        except HolderLabError as exc:  # every trial that is Hermitian fails here
            seminorm = (np.zeros((len(h), 1), dtype=bool), lambda idx, exc=exc: exc)
            rows[c], entries[c] = _first_failures(len(h), [hermitian], [seminorm]), None
            continue
        if sv is None:
            dec, _, *reconstructed = eigh_stack(h)
            fh, *defined = apply_stack(f, dec)
            row = _first_failures(len(h), [hermitian], [reconstructed, defined])
            sv = profiles(h, fh)
        rows[c] = row
    return h, sv, rows, entries, sems


def _difference_profiles(h, fh) -> np.ndarray:
    """The profiles of f(X) - f(Y) and X - Y, (T, 2, n)."""
    return _hermitian_profiles(fh[:, 0] - fh[:, 1], h[:, 0] - h[:, 1])


# --- the difference estimates ---------------------------------------------------


def verify_main_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_symmetric_stack on the base S_1."""
    cells = [(theta, p, Schatten(1)) for theta, p, _ in cells]
    return verify_symmetric_stack(f, cells, stack, sem_cache, variant)


def verify_main(f: ScalarFunction, theta, p, a, b, sem_cache=None, digest="") -> VerificationRecord:
    """||f(A) - f(B)||_p versus seminorm(f) * || |A-B|^theta ||_p: the
    symmetric estimate in E^(p) for E = S_1, since ||X||_p is the p-th power
    norm of the trace class."""
    outcomes = _one(verify_main_stack, f, theta, p, None, (a, b), sem_cache, None)
    return outcomes.record(0, 0, "main", digest)


def verify_bks_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_bks over a stack (T, 2, n, n) of (X, Y), with the checks X
    Hermitian, X reconstruction, X positive, then the same for Y.  One
    eigendecomposition and one SVD of X - Y serve every cell, and one SVD of
    X^theta - Y^theta and one |X - Y|^theta every cell of that theta."""

    def check(theta, p, spec):
        if not 0.0 < theta < 1.0:
            raise ParameterError(f"theta must lie in (0,1), got {theta}")
        check_fully_symmetric(spec)
        return spec, theta

    errors, entries = _per_cell(cells, check)
    if all(errors):
        return Outcomes.failing(errors, len(stack))
    h, *hermitian = hermitian_stack(stack)
    dec, recon, *reconstructed = eigh_stack(h)
    lam = dec.eigenvalues
    positive = (
        psd_stack(lam),
        lambda idx: DomainError(
            f"{'XY'[idx[1]]} must be positive semidefinite (min eigenvalue "
            f"{lam[idx].min():.3e})"
        ),
    )
    row = _first_failures(len(h), [hermitian, reconstructed, positive])
    difference = _hermitian_profiles(recon[:, 0] - recon[:, 1])[:, 0]

    def powered_profiles(theta):
        with np.errstate(all="ignore"):  # pairs that are not ok may hold garbage
            powered = from_eigen(dec.basis, np.clip(lam, 0.0, None) ** theta)
        return _hermitian_profiles(powered[:, 0] - powered[:, 1])[:, 0]

    lhs, rhs = _norm_rows(entries, len(h), powered_profiles, lambda theta: difference ** theta)
    return Outcomes.judged([e or row for e in errors], lhs, rhs, stack)


def verify_bks(theta, spec: NormSpec, x, y, digest="") -> VerificationRecord:
    """||X^theta - Y^theta|| versus || |X-Y|^theta || for positive X, Y in a
    fully symmetric norm; the expected constant is exactly 1."""
    outcomes = _one(verify_bks_stack, None, theta, None, spec, (x, y), None, None)
    return outcomes.record(0, 0, "bks", digest)


def verify_submaj_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_submajorization over a stack (T, 2, n, n) of (X, Y), with the
    checks of _seminorm_front.  The profiles compared are upper = (seminorm
    * mu(|X-Y|^theta) / s)^p and lower = (mu(f(X) - f(Y)) / s)^p, s the
    larger of the two bases' first entries (norms._unit), so that no
    power overflows.  A trial's constant is the least c making the
    domination hold, and its lhs and rhs are the partial sums of lower and
    upper where their ratio peaks (the totals when c is 0 or infinite)."""
    h, sv, rows, entries, sems = _seminorm_front(
        f, stack, sem_cache, _difference_profiles, cells, lambda spec, p: p
    )
    profiles = np.full((2, len(cells), *h.shape[::2]), math.nan)
    for c, entry in enumerate(entries):
        if entry is not None:
            p, theta = entry
            bases = np.stack([sems[c] * sv[:, 1] ** theta, sv[:, 0]])
            profiles[:, c] = (bases / _unit(bases[..., :1].max(axis=0))) ** p
    constants = least_domination_constant(*profiles)
    cu, cl = np.cumsum(profiles, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.argmax(np.where(cu > 0.0, cl / cu, 0.0), axis=-1)
    k = np.where(np.isfinite(constants) & (constants > 0.0), peak, -1)[..., None]
    lhs, rhs = (np.take_along_axis(x, k, axis=-1)[..., 0] for x in (cl, cu))
    return Outcomes.judged(rows, lhs, rhs, h, constants, tuple(profiles))


def verify_submajorization(f: ScalarFunction, theta, p, x, y, sem_cache=None, digest=""):
    """mu(f(X) - f(Y))^p against seminorm^p * mu(|X-Y|^theta)^p: returns the
    submajorization report at constant 1 plus a record whose ratio is the
    least constant making the domination hold (the empirical constant to the
    p-th power), realized at the worst partial sum."""
    outcomes = _one(verify_submaj_stack, f, theta, p, None, (x, y), sem_cache, None)
    upper, lower = outcomes.profiles
    return submajorizes(upper[0, 0], lower[0, 0]), outcomes.record(0, 0, "submaj", digest)


def verify_symmetric_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_symmetric over a stack (T, 2, n, n) of (X, Y), with the checks
    of _seminorm_front; one SVD of f(X) - f(Y) and X - Y serves every cell."""
    h, sv, rows, entries, sems = _seminorm_front(f, stack, sem_cache, _difference_profiles, cells)
    (lhs,) = _norm_rows([e and (e[0], None) for e in entries], len(h), lambda _: sv[:, 0])
    (rhs,) = _norm_rows(entries, len(h), lambda theta: sv[:, 1] ** theta)
    return Outcomes.judged(rows, lhs, np.array(sems)[:, None] * rhs, h)


def verify_symmetric(
    f: ScalarFunction, theta, p, base: NormSpec, x, y, sem_cache=None, digest=""
) -> VerificationRecord:
    """The main estimate in the p-th power norm of a fully symmetric base."""
    outcomes = _one(verify_symmetric_stack, f, theta, p, base, (x, y), sem_cache, None)
    return outcomes.record(0, 0, "symmetric", digest)


# --- reverse-direction estimates -------------------------------------------------


BRACKET_LIMIT = 1e12


def _bisect_inverse(f: ScalarFunction, y, sign, tol=1e-12):
    """Solve f(x) = y for every element of the 1-D arrays ``y`` and ``sign``
    (+1 where f increases, -1 where it decreases) in one lockstep bisection.

    Each element takes the steps of the scalar algorithm: double lo from -1
    until sign*f(lo) <= sign*y, then hi from 1 until sign*f(hi) >= sign*y,
    giving up past +-BRACKET_LIMIT; then halve [lo, hi] until
    hi - lo <= tol * (1 + |mid|).  Elements leave the active set as they
    finish, so f is evaluated once per step on the elements still active.
    Returns the midpoints and the per-element bracketed mask."""
    target = sign * y
    lo = np.full(y.shape, -1.0)
    hi = np.full(y.shape, 1.0)
    ok = np.ones(y.shape, dtype=bool)

    def g(t, idx):
        return sign[idx] * np.asarray(f.eval(t), dtype=float)

    def bracket(end, reached, escaped):
        act = np.flatnonzero(ok)
        for _ in range(200):
            if not act.size:
                break
            act = act[~reached(g(end[act], act), target[act])]
            end[act] *= 2.0
            out = escaped(end[act])
            ok[act[out]] = False
            act = act[~out]

    with np.errstate(all="ignore"):  # f may overflow far from its range
        bracket(lo, np.less_equal, lambda t: t < -BRACKET_LIMIT)
        bracket(hi, np.greater_equal, lambda t: t > BRACKET_LIMIT)
        act = np.flatnonzero(ok)
        for _ in range(200):
            mid = 0.5 * (lo[act] + hi[act])
            going = ~(hi[act] - lo[act] <= tol * (1.0 + np.abs(mid)))
            act, mid = act[going], mid[going]
            if not act.size:
                break
            below = g(mid, act) < target[act]
            lo[act[below]] = mid[below]
            hi[act[~below]] = mid[~below]
    return 0.5 * (lo + hi), ok


def _monotone_sign(f: ScalarFunction, lam):
    """Per item of a stack (..., n) of eigenvalues: +1 where f increases
    strictly on 64 points spanning [min - 1, max + 1], -1 where it decreases
    strictly, 0 where it does neither."""
    lo, hi = lam.min(axis=-1) - 1.0, lam.max(axis=-1) + 1.0
    # an item whose span rounds to a point has a constant probe; linspace
    # would switch every item of the stack to its zero-step arithmetic
    flat = hi - lo == 0.0
    span = np.linspace(np.where(flat, 0.0, lo), np.where(flat, 1.0, hi), 64, axis=-1)
    with np.errstate(all="ignore"):  # e.g. expm1 overflows on large spectra
        d = np.diff(np.asarray(f.eval(span), dtype=float), axis=-1)
    sign = np.where((d > 0).all(axis=-1), 1.0, np.where((d < 0).all(axis=-1), -1.0, 0.0))
    return np.where(flat, 0.0, sign)


def inverse_apply(f: ScalarFunction, h):
    """f^{-1}(M) for a stack (..., n, n) of exactly Hermitian M, with f
    strictly monotone around each spectrum: the scalar inverse is evaluated
    by one lockstep bisection over every eigenvalue of the stack.

    Returns the stack of f^{-1}(M), the per-matrix ok mask, and a function
    that maps the index of a matrix that is not ok to the error of its first
    failed check: reconstruction, f strictly monotone on the probe, every
    eigenvalue bracketed.
    ``numpy.linalg.LinAlgError`` from the eigensolver propagates."""
    dec, _, recon_ok, recon_error = eigh_stack(h)
    lam = dec.eigenvalues
    sign = _monotone_sign(f, lam)
    ok = recon_ok & (sign != 0.0)
    signs = np.broadcast_to(sign[..., None], lam.shape)
    todo = np.broadcast_to(ok[..., None], lam.shape)
    vals = np.zeros(lam.shape)
    vals[todo], bracketed = _bisect_inverse(f, lam[todo], signs[todo])
    found = np.ones(lam.shape, dtype=bool)
    found[todo] = bracketed

    def error(idx):
        if not recon_ok[idx]:
            return recon_error(idx)
        if sign[idx] == 0.0:
            return DomainError(f"{f.name} is not strictly monotone on the sampled range")
        return DomainError(f"{f.name}: could not bracket inverse at {lam[idx][~found[idx]][0]}")

    return from_eigen(dec.basis, vals), ok & found.all(axis=-1), error


def verify_inverse_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_inverse over a stack (T, 2, n, n) of (X, Y), spec the base
    norm, with the checks X Hermitian, Y Hermitian, then inverse_apply's
    checks on X, then on Y.  One inverse_apply and one SVD serve every cell."""

    def check(theta, p, spec):
        if not theta > 1.0:
            raise ParameterError(f"inverse verifier needs theta > 1, got {theta}")
        check_fully_symmetric(spec)
        power = PowerOf(spec, p)
        return power, theta, _seminorm_value(f, d_of_p(p), 1.0 / theta, sem_cache) ** theta

    errors, checked = _per_cell(cells, check)
    h, *hermitian = hermitian_stack(stack)
    if all(errors):
        return Outcomes.failing(errors, len(h))
    inv, *invertible = inverse_apply(f, h)
    row = _first_failures(len(h), [hermitian], [invertible])
    sv = _hermitian_profiles(inv[:, 0] - inv[:, 1], h[:, 0] - h[:, 1])
    factors = np.array([math.nan if e is None else e[2] for e in checked])[:, None]
    (lhs,) = _norm_rows([e and (e[0], None) for e in checked], len(h), lambda _: sv[:, 0])
    (rhs,) = _norm_rows([e and e[:2] for e in checked], len(h), lambda theta: sv[:, 1] ** theta)
    return Outcomes.judged([e or row for e in errors], factors * lhs, rhs, h)


def verify_inverse(
    f: ScalarFunction, theta, p, base: NormSpec, x, y, sem_cache=None, digest=""
) -> VerificationRecord:
    """For invertible f in the 1/theta class (theta > 1):
    lhs = seminorm(f)^theta * ||f^{-1}(X) - f^{-1}(Y)||_{E^(p)},
    rhs = || |X-Y|^theta ||_{E^(p)}; the estimate says ratio >= 1/C."""
    outcomes = _one(verify_inverse_stack, f, theta, p, base, (x, y), sem_cache, None)
    return outcomes.record(0, 0, "inverse", digest)


# the maps g(t) of the reverse verifier: sgn(t)|t|^theta, sgn(t) expm1(|t|)
REVERSE_VARIANTS = ("power", "expm1")


def verify_reverse_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_reverse_power over a stack (T, 2, n, n) of (X, Y), spec the
    base norm, with the checks X Hermitian, Y Hermitian, then per matrix its
    reconstruction and, for "expm1", g finite on its spectrum.  One
    eigendecomposition and one SVD of X - Y serve every cell, and one SVD of
    g(X) - g(Y) every cell (for "expm1") or every cell of that theta."""

    def check(theta, p, spec):
        if not theta > 1.0:
            raise ParameterError(f"reverse power needs theta > 1, got {theta}")
        power = PowerOf(spec, p)
        if variant not in REVERSE_VARIANTS:
            raise ParameterError(f"unknown reverse variant {variant!r}")
        return power, theta

    errors, entries = _per_cell(cells, check)
    h, *hermitian = hermitian_stack(stack)
    if all(errors):
        return Outcomes.failing(errors, len(h))
    dec, _, *reconstructed = eigh_stack(h)
    lam = dec.eigenvalues
    checks = [reconstructed]
    if variant == "expm1":
        image, *defined = apply_stack(signed_expm1(), dec)
        checks.append(defined)
    row = _first_failures(len(h), [hermitian], checks)
    difference = _hermitian_profiles(h[:, 0] - h[:, 1])[:, 0]

    def mapped_profiles(theta):
        # sgn(M)|M|^theta: finite on finite spectra, not symmetrized
        g = image if theta is None else from_eigen(dec.basis, np.sign(lam) * np.abs(lam) ** theta)
        return _hermitian_profiles(g[:, 0] - g[:, 1])[:, 0]

    mapped = [e and (e[0], e[1] if variant == "power" else None) for e in entries]
    (lhs,) = _norm_rows(mapped, len(h), mapped_profiles)
    (rhs,) = _norm_rows(entries, len(h), lambda theta: difference ** theta)
    return Outcomes.judged([e or row for e in errors], lhs, rhs, h)


def verify_reverse_power(
    theta, p, base: NormSpec, x, y, variant="power", digest=""
) -> VerificationRecord:
    """||g(X) - g(Y)|| versus || |X-Y|^theta || for theta > 1, with g(t) =
    sgn(t)|t|^theta (variant "power") or sgn(t) expm1(|t|) (variant "expm1");
    the estimate says the ratio stays above a positive constant."""
    outcomes = _one(verify_reverse_stack, None, theta, p, base, (x, y), None, variant)
    return outcomes.record(0, 0, f"reverse:{variant}", digest)


# --- commutators, quasi-commutators, absolute value ------------------------------


def verify_commutator(
    f: ScalarFunction, theta, p, base: NormSpec, x, b, sem_cache=None, digest=""
) -> VerificationRecord:
    """||[f(X), B]|| versus seminorm * || |[X,B]|^theta || * ||B||^(1-theta)
    in the p-th power norm of the base."""
    outcomes = _one(verify_quasicommutator_stack, f, theta, p, base, (x, b), sem_cache, None)
    return outcomes.record(0, 0, "commutator", digest)


def verify_quasicommutator_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_quasi_commutator over a stack (T, 3, n, n) of (A, B, R), or
    (T, 2, n, n) of (A, R) with B = A, spec the base norm; with the checks of
    _seminorm_front on the Hermitian inputs.  One SVD of f(A)R - Rf(B), AR -
    RB and R serves every cell."""
    r = stack[:, -1]

    def profiles(h, fh):
        return _profiles(fh[:, 0] @ r - r @ fh[:, -1], h[:, 0] @ r - r @ h[:, -1], r)

    h, sv, rows, entries, sems = _seminorm_front(f, stack[:, :-1], sem_cache, profiles, cells)
    mats = np.concatenate([h, stack[:, -1:]], axis=1)
    nan = np.full(len(h), math.nan)
    weights = np.array([nan if e is None else sv[:, 2, 0] ** (1.0 - e[1]) for e in entries])
    (rhs,) = _norm_rows(entries, len(h), lambda theta: sv[:, 1] ** theta)
    rhs = np.array(sems)[:, None] * rhs * weights
    (lhs,) = _norm_rows([e and (e[0], None) for e in entries], len(h), lambda _: sv[:, 0])
    return Outcomes.judged(rows, lhs, rhs, mats)


def verify_quasi_commutator(
    f: ScalarFunction, theta, p, base: NormSpec, a, b, r, sem_cache=None, digest=""
) -> VerificationRecord:
    """||f(A)R - Rf(B)|| versus seminorm * || |AR-RB|^theta || * ||R||^(1-theta)."""
    outcomes = _one(verify_quasicommutator_stack, f, theta, p, base, (a, b, r), sem_cache, None)
    return outcomes.record(0, 0, "quasicommutator", digest)


def verify_absmap_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """verify_abs_map over a stack (T, 2, n, n) of (A, B), spec the base
    norm; one SVD of |A| - |B|, A + B and A - B serves every cell."""
    errors, powers = _per_cell(cells, lambda theta, p, spec: PowerOf(spec, p))
    if all(errors):
        return Outcomes.failing(errors, len(stack))
    absolute = abs_matrix(stack)
    a, b = stack[:, 0], stack[:, 1]
    sv = _profiles(absolute[:, 0] - absolute[:, 1], a + b, a - b)
    entries = [e and (e, None) for e in powers]
    lhs, plus, minus = _norm_rows(entries, len(stack), *(lambda _, k=k: sv[:, k] for k in range(3)))
    row = (np.ones(len(stack), dtype=bool), None)
    return Outcomes.judged([e or row for e in errors], lhs, np.sqrt(plus * minus), stack)


def verify_abs_map(base: NormSpec, p, a, b, digest="") -> VerificationRecord:
    """|| |A| - |B| || versus sqrt(||A+B|| ||A-B||) in the p-th power norm;
    for Schatten p >= 2 the classical constant is 1."""
    outcomes = _one(verify_absmap_stack, None, None, p, base, (a, b), None, None)
    return outcomes.record(0, 0, "absmap", digest)


# --- Araki-Lieb-Thirring submajorization -----------------------------------------


def verify_alt_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """alt_check over a stack (T, 2, n, n) of (X, Z), with the checks X
    Hermitian, Z Hermitian, X reconstruction, Z reconstruction, X positive, Z
    positive (within the zero tolerance of both spectra).  The profiles
    compared are upper = mu(ZX)^(theta p) and lower = mu(Z^theta X^theta)^p;
    a trial's lhs and ratio are the violation max(0, -margin) of their
    submajorization report, its rhs is 1, its constant the margin, and it is
    flagged when the submajorization fails.  One eigendecomposition and one
    SVD of ZX serve every cell, one SVD of Z^theta X^theta every cell of that
    theta, and one pass the margins of every cell and trial that pass."""

    def check(theta, p, spec):
        if not 0.0 < theta < 1.0:
            raise ParameterError(f"theta must lie in (0,1), got {theta}")
        if not p > 0:
            raise ParameterError(f"p must be positive, got {p}")
        return theta, p

    errors, checked = _per_cell(cells, check)
    if all(errors):
        return Outcomes.failing(errors, len(stack))
    h, *hermitian = hermitian_stack(stack)
    dec, _, *reconstructed = eigh_stack(h)
    lam = dec.eigenvalues
    zero_tol = ZERO_TOL_COEFF * (1.0 + np.abs(lam).max(axis=(-2, -1), initial=0.0))
    positive = (
        ~(lam.min(axis=-1, initial=0.0) < -zero_tol[:, None]),
        lambda idx: DomainError(
            f"{'XZ'[idx[1]]} is not positive semidefinite (min eigenvalue "
            f"{lam[idx].min():.3e})"
        ),
    )
    row = _first_failures(len(h), [hermitian], [reconstructed], [positive])
    clipped = np.clip(lam, 0.0, None)
    one = from_eigen(dec.basis, clipped)
    product = _profiles(one[:, 1] @ one[:, 0])[:, 0]

    @functools.cache
    def powered_profiles(theta):
        powered = from_eigen(dec.basis, clipped ** theta)
        return _profiles(powered[:, 1] @ powered[:, 0])[:, 0]

    shape = (len(cells), len(h))
    profiles = np.full((2, *shape, h.shape[-1]), math.nan)
    for c, entry in enumerate(checked):
        if entry is not None:
            theta, p = entry
            profiles[:, c] = product ** (theta * p), powered_profiles(theta) ** p
    judged = np.array([e is None for e in errors])[:, None] & row[0]
    margins = np.full(shape, math.nan)
    margins[judged] = _submajorization_margin(profiles[0][judged], profiles[1][judged])[0]
    violation = np.where(-margins > 0.0, -margins, 0.0)
    rows = [e or row for e in errors]
    outcomes = Outcomes.judged(rows, violation, np.ones(shape), stack, margins)
    flagged = judged & ~(margins >= -SUBMAJ_TOL)  # a NaN margin fails
    return replace(outcomes, flagged=flagged, profiles=tuple(profiles))


def alt_check(x, z, theta: float, p: float):
    """Submajorization |Z^theta X^theta|^p << |Z X|^{theta p} for positive
    semidefinite X, Z."""
    upper, lower = _one(verify_alt_stack, None, theta, p, None, (x, z), None, None).profiles
    return submajorizes(upper[0, 0], lower[0, 0])


# --- structural companions --------------------------------------------------------


def cayley_identity_residual(f: ScalarFunction, x, b) -> float:
    """Agreement of ||U* f(X) U - f(X)|| and ||f(U* X U) - f(X)|| for the
    Cayley unitary of a Hermitian contraction B."""
    xm = as_hermitian(x)
    bm = as_hermitian(b)
    nb = op_norm(bm)
    if nb > 1.0:
        bm = bm / nb
    u = cayley(bm)
    fx = apply_function(f, xm)
    n1 = op_norm(u.conj().T @ fx @ u - fx)
    n2 = op_norm(apply_function(f, u.conj().T @ xm @ u) - fx)
    return abs(n1 - n2) / (1.0 + max(n1, n2))


# --- finite-rank telescoping -------------------------------------------------------


def verify_telescope_stack(f, cells, stack, sem_cache, variant) -> Outcomes:
    """telescope_finite_rank over a stack (T, 1 + r, n, n) of [B, x_1 e_1,
    ..., x_r e_r], with the checks every input Hermitian, then per chain
    matrix A_m = B + x_1 e_1 + ... + x_m e_m its reconstruction and f finite
    on its spectrum, in the order B, A_r, A_1, ..., A_{r-1}.  One
    eigendecomposition and one SVD of the chain serve every cell, and the
    sides of the estimate every cell of that p; theta is not used."""

    def check(theta, p, spec):
        if not 0.0 < p <= 1.0:
            raise ParameterError(f"telescoping needs p in (0,1], got {p}")
        return p

    errors, ps = _per_cell(cells, check)
    if all(errors):
        return Outcomes.failing(errors, len(stack))
    h, *hermitian = hermitian_stack(stack)
    r = h.shape[1] - 1
    order = [0, r, *range(1, r)]  # B, A_r, A_1, ..., A_{r-1}
    chain = np.cumsum(h, axis=1)[:, order]
    dec, _, *reconstructed = eigh_stack(chain)
    images, *defined = apply_stack(f, dec)
    row = _first_failures(len(h), [hermitian], [reconstructed, defined])
    fa = images[:, np.argsort(order)]  # f(A_0), ..., f(A_r)
    steps = fa[:, 1:] - fa[:, :-1]
    sv = _hermitian_profiles(images[:, 1] - images[:, 0], *steps.swapaxes(0, 1))

    @functools.cache
    def sides(p):
        powers = norm_of_profile(sv, Schatten(p)) ** p
        # a running total of the step terms, rounded after each step
        return powers[:, 0], sum(powers[:, 1:].T, np.zeros(len(sv)))

    nan = np.full((2, len(h)), math.nan)
    lhs, rhs = np.stack([nan if p is None else sides(p) for p in ps], axis=1)
    return Outcomes.judged([e or row for e in errors], lhs, rhs, chain[:, :2])


def telescope_finite_rank(f: ScalarFunction, theta, p, b, steps, digest="") -> VerificationRecord:
    """||f(A_r) - f(B)||_p^p versus the sum of the step terms
    ||f(A_m) - f(A_{m-1})||_p^p along the chain A_m = B + x_1 e_1 + ... +
    x_m e_m of the steps (x_k, e_k), for 0 < p <= 1 and mutually orthogonal
    projections e_k; the p-triangle inequality says ratio <= 1.  theta is
    not used."""
    _, *es = _stack_of_one([b, *(e for _, e in steps)])[0]
    projs = [as_hermitian(e) for e in es]
    tol = 1e-8
    for i, e in enumerate(projs):
        if op_norm(e @ e - e) > tol:
            raise PreconditionError(f"step {i}: not a projection")
        for j in range(i):
            if op_norm(projs[i] @ projs[j]) > tol:
                raise PreconditionError(f"steps {j},{i}: projections not orthogonal")
    mats = [b] + [float(x) * e for (x, _), e in zip(steps, projs)]
    outcomes = _one(verify_telescope_stack, f, theta, p, None, mats, None, None)
    return outcomes.record(0, 0, "telescope", digest)
