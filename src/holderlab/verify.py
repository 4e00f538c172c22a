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
    norm_of_profile,
)
from .spectral import (
    ZERO_SNAP,
    SpectralDecomposition,
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
    ratios, flags and constants, which mean nothing for a failed pair."""

    ok: np.ndarray
    error: Callable
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    flagged: np.ndarray
    constants: Optional[np.ndarray] = None

    @classmethod
    def judged(cls, row, lhs, rhs, mats, constants=None) -> "Outcomes":
        """The outcomes of sides ``lhs`` and ``rhs`` (C, T) whose cells share
        the stack's ``row``.  Ratio = lhs / rhs with 0/0 -> 0; a pair (c, i)
        that passes its checks with rhs <= 0 is flagged when lhs exceeds
        ABS_TOL_COEFF * n * (1 + the largest operator norm of trial i's inputs
        mats[i]), computed once per such trial, however many cells share it."""
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        ok = np.broadcast_to(row[0], lhs.shape)
        positive = rhs > 0.0
        with np.errstate(all="ignore"):
            ratio = np.where(positive, lhs / rhs, 0.0)
        degenerate = ok & ~positive
        flagged = np.zeros(ok.shape, dtype=bool)
        for i in np.flatnonzero(degenerate.any(axis=0)):
            scale = max((op_norm(m) for m in mats[i]), default=0.0)
            tol = ABS_TOL_COEFF * mats.shape[-1] * (1.0 + scale)
            flagged[:, i] = degenerate[:, i] & (lhs[:, i] > tol)
        error = lambda idx: row[1](idx[1])
        return cls(ok, error, lhs, rhs, ratio, flagged, constants)

    @classmethod
    def failing(cls, error) -> "Outcomes":
        """The outcomes of one cell that fails its one trial with ``error``."""
        row = (np.zeros(1, dtype=bool), lambda i: error)
        return cls.judged(row, *np.full((2, 1, 1), math.nan), None)

    @classmethod
    def of_cells(cls, parts) -> "Outcomes":
        """The outcomes of a stack whose cell rows are those of ``parts``, the
        one-cell Outcomes of that stack."""
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


def _seminorms(f):
    """The seminorm of f at (d, theta) that every difference estimate scales
    by, as a function of (d, theta) that estimates each pair once; it raises
    CapabilityError when the seminorm is infinite or f lacks d derivatives.
    Its ``function`` is f."""
    estimate = functools.cache(lambda d, theta: seminorm(f, d, theta).value)

    def value(d, theta):
        if not np.isfinite(estimate(d, theta)):
            raise CapabilityError(f"{f.name}: seminorm is infinite at theta={theta}, d={d}")
        return estimate(d, theta)

    value.function = f
    return value


def _check_of(kernel: str) -> Callable:
    """The cell check _check_<name> of the kernel named verify_<name>_stack."""
    return globals()["_check_" + kernel.removeprefix("verify_").removesuffix("_stack")]


class FloatRangeError(np.linalg.LinAlgError):
    """A matrix of a trial that left the float range, raised where LAPACK's
    failure would be, so that a campaign isolates its trial in the same way."""


def lapack_error(exc: np.linalg.LinAlgError) -> HolderLabError:
    """The error a trial records for ``exc``: the DomainError of a matrix
    that left the float range, else LAPACK's failure to converge."""
    if isinstance(exc, FloatRangeError):
        return DomainError(str(exc))
    return EigensolverError(f"LAPACK failed to converge: {exc}")


def _one(kernel, f, theta, p, spec, mats, variant=None) -> Outcomes:
    """The outcomes ``kernel`` gives the trial of inputs ``mats`` in a stack of
    one trial and the one cell (theta, p, spec), or raise the error of the
    cell's check, else the ShapeError of inputs that are not square matrices
    of one size, else the error of the trial; a LinAlgError is the error of
    lapack_error, which a campaign records for it."""
    entry = _check_of(kernel.__name__)(_seminorms(f), theta, p, spec, variant)
    mats = [as_square(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise ShapeError(f"inputs of different shapes {[m.shape for m in mats]}")
    try:
        outcomes = kernel(f, [entry], np.stack(mats)[None])
    except np.linalg.LinAlgError as exc:
        raise lapack_error(exc) from exc
    if not outcomes.ok[0, 0]:
        raise outcomes.error((0, 0))
    return outcomes


# --- the shared steps of the stack kernels ------------------------------------------
#
# Each kernel verify_<name>_stack has its cell check _check_<name>(sem, theta,
# p, spec, variant) beside it, sem the seminorm of f (_seminorms).  The check
# raises the HolderLabError that makes the cell fail every trial, or returns
# the cell's entry: what the kernel needs of it, such as its p-th power norm,
# theta and seminorm.  The kernel (f, entries, stack, dec) evaluates a stack
# of T trials, one complex array (T, k, n, n) as an ensembles draw yields it,
# in the C valid cells of ``entries``, and returns one Outcomes (C, T), judged
# once.  ``dec`` is the decomposition the draw built the stack from, sliced
# with the stack when a campaign reruns it by trial, and _front takes it in
# place of eigh; it is None for the other draws and for _one.  Each
# kernel's docstring states its estimate and which ratios witness it.  A
# trial fails with the error of the first check of its inputs it fails, in
# the order the kernel's docstring gives: one row of checks serves every
# cell.  numpy.linalg.LinAlgError (FloatRangeError included) propagates.  The
# work that does not depend on the cell (checks, eigendecompositions, images,
# SVDs) runs once per stack, and each norm once over the profiles of every
# theta (_norm_rows).  A check of the inputs is a pair (ok mask (T, k),
# function from an index (trial, input) to the error); a row is a pair (ok
# mask (T,), function from a trial to the error).


def _front(stack, apply=None, layout=(1, 2), chain=None, dec=None):
    """The front of every kernel that decomposes its inputs, on a stack (T,
    k, n, n): returns the matrices m it decomposes (the symmetrized inputs h,
    or ``chain(h)``), their decomposition (``dec``, if drawn, in place of
    eigh) and reconstruction (then the stack), the images of ``apply`` (dec
    -> (images or None, check)), and the row of the checks: every input
    Hermitian, per matrix its reconstruction, apply's check.  ``layout``
    groups these in turn; within a group input 0 takes every check, then
    input 1, and so on."""
    h, *hermitian = hermitian_stack(stack)
    m = h if chain is None else chain(h)
    dec, recon, *reconstructed = eigh_stack(m, drawn=dec)
    checks, images = [hermitian, reconstructed], None
    if apply is not None:
        images, *applied = apply(dec)
        checks.append(applied)
    ok = np.all([passed for passed, _ in checks], axis=(0, 2))
    order = [
        (j, check)
        for end, size in zip(np.cumsum(layout), layout)
        for j in range(m.shape[1])
        for check in checks[end - size : end]
    ]
    failed = {
        i: next(error((i, j)) for j, (passed, error) in order if not passed[i, j])
        for i in np.flatnonzero(~ok).tolist()
    }
    return m, dec, stack if recon is None else recon, images, (ok, failed.get)


def _positive(names):
    """_front's apply that checks each input positive semidefinite by
    spectral.psd_stack, naming input j ``names[j]``."""

    def check(dec):
        lam = dec.eigenvalues
        return None, psd_stack(lam), lambda idx: DomainError(
            f"{names[idx[1]]} must be positive semidefinite (min eigenvalue {lam[idx].min():.3e})"
        )

    return check


def _norm_rows(pairs, *profiles) -> list:
    """Per function ``profiles``, the rows (C, T): per cell the norms ``spec``
    of the profiles (T, n) ``profiles(key)`` of its pair (spec, key).  A
    function is called once per key, and each spec takes one norm_of_profile
    call over the profiles of every key."""
    specs, keys = {}, {}
    for spec, key in pairs:
        specs.setdefault(spec, len(specs))
        keys.setdefault(key, len(keys))
    index = [specs[spec] * len(keys) + keys[key] for spec, key in pairs]
    rows = []
    for profile in profiles:
        stacked = np.stack([profile(key) for key in keys])
        rows.append(np.concatenate([norm_of_profile(stacked, spec) for spec in specs])[index])
    return rows


def _profiles(*mats) -> np.ndarray:
    """The singular values of every trial's matrices in one batched SVD:
    (T, len(mats), n) for stacks (T, n, n)."""
    return np.linalg.svd(np.stack(mats, axis=1), compute_uv=False)


def _hermitian_profiles(*mats) -> np.ndarray:
    """_profiles of Hermitian matrices: |eigvalsh| sorted descending, C-contiguous,
    as a reversed view would change the order the norms sum in.  A non-finite
    eigenvalue raises FloatRangeError, where the SVD raises LinAlgError."""
    w = np.abs(np.linalg.eigvalsh(np.stack(mats, axis=1)))
    if not np.isfinite(w).all():
        raise FloatRangeError("a matrix of the trial leaves the float range (not finite)")
    return -np.sort(-w, axis=-1)


def _powered(profile, theta) -> np.ndarray:
    """profile ** theta, which may leave the float range."""
    with np.errstate(over="ignore"):
        return profile ** theta


def _scaled_sides(entries, sv) -> tuple:
    """For entries (p-th power norm, theta, factor), the rows of the norms of
    the profiles sv[:, 0] and of sv[:, 1] ** theta, and the factors (C, 1)."""
    (first,) = _norm_rows([(power, None) for power, _, _ in entries], lambda _: sv[:, 0])
    (second,) = _norm_rows([e[:2] for e in entries], lambda theta: _powered(sv[:, 1], theta))
    return first, second, np.array([factor for _, _, factor in entries])[:, None]


def _difference_profiles(*pairs) -> np.ndarray:
    """_hermitian_profiles of the differences pairs[:, 0] - pairs[:, 1] of
    stacks of pairs (T, 2, n, n), (T, len(pairs), n); a difference that
    leaves the float range fails its trial there."""
    with np.errstate(over="ignore"):
        differences = [m[:, 0] - m[:, 1] for m in pairs]
    return _hermitian_profiles(*differences)


# --- the difference estimates ---------------------------------------------------


def _check_main(sem, theta, p, spec, variant):
    """_check_symmetric on the base S_1."""
    return _check_symmetric(sem, theta, p, Schatten(1), variant)


def verify_main_stack(f, entries, stack, dec=None) -> Outcomes:
    """verify_symmetric_stack in the cells of _check_main."""
    return verify_symmetric_stack(f, entries, stack, dec)


def verify_main(f: ScalarFunction, theta, p, a, b) -> VerificationRecord:
    """||f(A) - f(B)||_p versus seminorm(f) * || |A-B|^theta ||_p: the
    symmetric estimate in E^(p) for E = S_1, since ||X||_p is the p-th power
    norm of the trace class."""
    outcomes = _one(verify_main_stack, f, theta, p, None, (a, b))
    return outcomes.record(0, 0, "main")


def _check_bks(sem, theta, p, spec, variant):
    """The entry (spec, theta) of a bks cell."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")
    check_fully_symmetric(spec)
    return spec, theta


def verify_bks_stack(f, entries, stack, dec=None) -> Outcomes:
    """verify_bks over a stack (T, 2, n, n) of (X, Y), with the checks X
    Hermitian, X reconstruction, X positive, then the same for Y.  One
    eigendecomposition and one SVD of X - Y serve every cell, and one SVD of
    X^theta - Y^theta and one |X - Y|^theta every cell of that theta."""
    h, dec, recon, _, row = _front(stack, _positive("XY"), (3,), dec=dec)
    lam = dec.eigenvalues
    difference = _difference_profiles(recon)[:, 0]

    def powered_profiles(theta):
        with np.errstate(all="ignore"):  # pairs that are not ok may hold garbage
            powered = from_eigen(dec.basis, np.clip(lam, 0.0, None) ** theta)
        return _difference_profiles(powered)[:, 0]

    lhs, rhs = _norm_rows(entries, powered_profiles, lambda theta: difference ** theta)
    return Outcomes.judged(row, lhs, rhs, stack)


def verify_bks(theta, spec: NormSpec, x, y) -> VerificationRecord:
    """||X^theta - Y^theta|| versus || |X-Y|^theta || for positive X, Y in a
    fully symmetric norm; the expected constant is exactly 1."""
    outcomes = _one(verify_bks_stack, None, theta, None, spec, (x, y))
    return outcomes.record(0, 0, "bks")


def _check_submaj(sem, theta, p, spec, variant):
    """The entry (p, theta, the seminorm at d_of_p(p)) of a submaj cell."""
    return p, theta, sem(d_of_p(p), theta)


def verify_submaj_stack(f, entries, stack, dec=None) -> Outcomes:
    """mu(f(X) - f(Y))^p against seminorm^p * mu(|X-Y|^theta)^p over a stack
    (T, 2, n, n) of (X, Y), with the checks X Hermitian, Y Hermitian, then
    per matrix its reconstruction and f finite on its spectrum.  The profiles
    compared are upper = (seminorm * mu(|X-Y|^theta) / s)^p and lower =
    (mu(f(X) - f(Y)) / s)^p, s the larger of the two bases' first entries
    (norms._unit), so that no power overflows.  A trial's constant and ratio
    are the least c making the domination hold (the empirical constant to the
    p-th power), and its lhs and rhs are the partial sums of lower and upper
    where their ratio peaks (the totals when c is 0 or infinite)."""
    h, _, _, fh, row = _front(stack, functools.partial(apply_stack, f), dec=dec)
    sv = _difference_profiles(fh, h)
    profiles = np.empty((2, len(entries), *h.shape[::2]))
    for c, (p, theta, sem) in enumerate(entries):
        bases = np.stack([sem * sv[:, 1] ** theta, sv[:, 0]])
        profiles[:, c] = (bases / _unit(bases[..., :1].max(axis=0))) ** p
    cu, cl = np.cumsum(profiles, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(cu > 0.0, cl / cu, np.where(cl > 0.0, np.inf, np.nan))
    # the constant is inf where a partial sum of lower is positive while
    # upper's is not, and skips a NaN ratio
    constants = np.fmax.reduce(ratios, axis=-1, initial=0.0)
    peak = np.argmax(np.where(cu > 0.0, ratios, 0.0), axis=-1)
    k = np.where(np.isfinite(constants) & (constants > 0.0), peak, -1)[..., None]
    lhs, rhs = (np.take_along_axis(x, k, axis=-1)[..., 0] for x in (cl, cu))
    return Outcomes.judged(row, lhs, rhs, h, constants)


def _check_symmetric(sem, theta, p, spec, variant):
    """The entry (the p-th power norm of spec, theta, the seminorm at
    d_of_p(p)) of a cell of an estimate that scales by the seminorm."""
    return PowerOf(spec, p), theta, sem(d_of_p(p), theta)


def verify_symmetric_stack(f, entries, stack, dec=None) -> Outcomes:
    """||f(X) - f(Y)|| versus seminorm * || |X-Y|^theta || in the p-th power
    norm of a fully symmetric base, over a stack (T, 2, n, n) of (X, Y), with
    the checks of verify_submaj_stack; one SVD of f(X) - f(Y) and X - Y
    serves every cell."""
    h, _, _, fh, row = _front(stack, functools.partial(apply_stack, f), dec=dec)
    sv = _difference_profiles(fh, h)
    lhs, rhs, sems = _scaled_sides(entries, sv)
    return Outcomes.judged(row, lhs, sems * rhs, h)


# --- reverse-direction estimates -------------------------------------------------


def inverse_apply(f: ScalarFunction, dec: SpectralDecomposition):
    """f^{-1}(M) for a stack (..., n, n) of decompositions of Hermitian M:
    one f.inverse call over every eigenvalue of the stack, on the branch
    where f increases (x >= 0 for an even f).  eigh may round an eigenvalue
    by up to ZERO_SNAP * n of it, so an eigenvalue has a preimage only where
    f.inverse is finite at both ends of that band: a spectrum that reaches
    the end of f's range (as srational:1 at 1) fails on whichever side of it
    eigh rounds.

    Returns the stack of f^{-1}(M), the per-matrix ok mask (every preimage
    finite), and a function that maps the index of a matrix that is not ok
    to its DomainError.  A matrix that is not ok holds zeros."""
    lam = dec.eigenvalues
    band = ZERO_SNAP * lam.shape[-1] * lam
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite eigenvalue
        below, preimage, above = f.inverse(np.stack([lam - band, lam, lam + band]))
    ends = np.isfinite(below) & np.isfinite(above)
    ok = ends.all(axis=-1)

    def error(idx):
        missing = lam[idx][~ends[idx]][0]
        return DomainError(f"{f.name} has no finite inverse within rounding of {missing}")

    return from_eigen(dec.basis, np.where(ok[..., None], preimage, 0.0)), ok, error


def _check_inverse(sem, theta, p, spec, variant):
    """The entry (the p-th power norm of spec, theta, the seminorm at
    (d_of_p(p), 1/theta) to the power theta) of an inverse cell, whose f
    must carry its ``inverse``."""
    if not theta > 1.0:
        raise ParameterError(f"inverse verifier needs theta > 1, got {theta}")
    check_fully_symmetric(spec)
    try:
        factor = sem(d_of_p(p), 1.0 / theta) ** theta
    except OverflowError:
        raise CapabilityError(
            f"the seminorm of {sem.function.name} to the power theta = {theta} "
            "leaves the float range"
        ) from None
    if sem.function.inverse is None:
        raise CapabilityError(f"{sem.function.name} has no closed-form inverse")
    return PowerOf(spec, p), theta, factor


def verify_inverse_stack(f, entries, stack, dec=None) -> Outcomes:
    """For invertible f in the 1/theta class (theta > 1), lhs =
    seminorm(f)^theta * ||f^{-1}(X) - f^{-1}(Y)||_{E^(p)} and rhs =
    || |X-Y|^theta ||_{E^(p)} over a stack (T, 2, n, n) of (X, Y); the
    estimate says ratio >= 1/C.  The checks are X Hermitian, Y Hermitian,
    then per matrix its reconstruction and inverse_apply's check, then per
    cell both sides finite: a side that left the float range would read as
    ratio 0 or NaN.  One inverse_apply and one SVD serve every cell."""
    h, _, _, inv, row = _front(stack, functools.partial(inverse_apply, f), dec=dec)
    sv = _difference_profiles(inv, h)
    lhs, rhs, factors = _scaled_sides(entries, sv)
    with np.errstate(over="ignore"):
        lhs = factors * lhs
    ok = row[0] & np.isfinite(lhs) & np.isfinite(rhs)

    def error(i):
        return row[1](i) or DomainError("a side of the trial leaves the float range (not finite)")

    return Outcomes.judged((ok, error), lhs, rhs, h)


# the maps g(t) of the reverse verifier: sgn(t)|t|^theta, sgn(t) expm1(|t|)
REVERSE_VARIANTS = ("power", "expm1")


def _check_reverse(sem, theta, p, spec, variant):
    """The entry (the p-th power norm of spec, theta, variant) of a reverse
    cell; CampaignConfig checks the variant."""
    if not theta > 1.0:
        raise ParameterError(f"reverse power needs theta > 1, got {theta}")
    return PowerOf(spec, p), theta, variant


def verify_reverse_stack(f, entries, stack, dec=None) -> Outcomes:
    """||g(X) - g(Y)|| versus || |X-Y|^theta || for theta > 1, with g(t) =
    sgn(t)|t|^theta (variant "power") or sgn(t) expm1(|t|) (variant
    "expm1"), over a stack (T, 2, n, n) of (X, Y); the estimate says the
    ratio stays above a positive constant.  The checks are X Hermitian, Y
    Hermitian, then per matrix its reconstruction and, if some entry is of
    variant "expm1", g finite on its spectrum.  Both sides of "power" are
    homogeneous of degree theta in (X, Y), so for it a pair whose largest
    |eigenvalue| has a binary exponent e with |e| theta > 768 (e outside
    [-256, 256] at theta 3) is scaled by 2^-e, exactly, and no power of it
    leaves the float range.  One eigendecomposition and one SVD of X - Y
    serve every cell, and one SVD of g(X) - g(Y) every cell (for "expm1") or
    every cell of that theta."""
    expm1 = any(variant == "expm1" for _, _, variant in entries)
    apply = functools.partial(apply_stack, signed_expm1()) if expm1 else None
    h, dec, _, image, row = _front(stack, apply, dec=dec)
    difference = _difference_profiles(h)[:, 0]
    e = np.frexp(np.abs(dec.eigenvalues).max(axis=(-2, -1)))[1]

    def scaled(x, theta):
        """x (T, ...), each trial's entries scaled by its 2^-e where |e| theta > 768."""
        with np.errstate(over="ignore"):  # an inf product is still > 768
            shift = np.where(np.abs(e) * theta > 768, -e, 0)
        return np.ldexp(x, shift.reshape((-1,) + (1,) * (x.ndim - 1)))

    def mapped_profiles(theta):
        # sgn(M)|M|^theta, not symmetrized; a spectrum whose power leaves the
        # float range gives a matrix that is not finite, and its trial fails
        if theta is None:
            g = image
        else:
            lam = scaled(dec.eigenvalues, theta)
            with np.errstate(over="ignore", invalid="ignore"):
                g = from_eigen(dec.basis, np.sign(lam) * np.abs(lam) ** theta)
        return _difference_profiles(g)[:, 0]

    def powered_difference(key):
        theta, variant = key
        return _powered(scaled(difference, theta) if variant == "power" else difference, theta)

    mapped = [(power, theta if variant == "power" else None) for power, theta, variant in entries]
    (lhs,) = _norm_rows(mapped, mapped_profiles)
    (rhs,) = _norm_rows([(power, (theta, variant)) for power, theta, variant in entries],
                        powered_difference)
    return Outcomes.judged(row, lhs, rhs, h)


# --- commutators, quasi-commutators, absolute value ------------------------------


def verify_commutator(f: ScalarFunction, theta, p, base: NormSpec, x, b) -> VerificationRecord:
    """||[f(X), B]|| versus seminorm * || |[X,B]|^theta || * ||B||^(1-theta)
    in the p-th power norm of the base."""
    outcomes = _one(verify_quasicommutator_stack, f, theta, p, base, (x, b))
    return outcomes.record(0, 0, "commutator")


_check_quasicommutator = _check_symmetric


def verify_quasicommutator_stack(f, entries, stack, dec=None) -> Outcomes:
    """||f(A)R - Rf(B)|| versus seminorm * || |AR-RB|^theta || * ||R||^(1-theta)
    in the p-th power norm of the base, over a stack (T, 3, n, n) of (A, B,
    R), or (T, 2, n, n) of (A, R) with B = A (the commutator [f(A), R]);
    with the checks of verify_submaj_stack on the Hermitian inputs.  One SVD
    of f(A)R - Rf(B), AR - RB and R serves every cell."""
    r = stack[:, -1]
    h, _, _, fh, row = _front(stack[:, :-1], functools.partial(apply_stack, f))
    sv = _profiles(fh[:, 0] @ r - r @ fh[:, -1], h[:, 0] @ r - r @ h[:, -1], r)
    mats = np.concatenate([h, stack[:, -1:]], axis=1)
    weights = np.array([sv[:, 2, 0] ** (1.0 - theta) for _, theta, _ in entries])
    lhs, rhs, sems = _scaled_sides(entries, sv)
    return Outcomes.judged(row, lhs, sems * rhs * weights, mats)


def _check_absmap(sem, theta, p, spec, variant):
    """The entry (the p-th power norm of spec, None) of an absmap cell."""
    return PowerOf(spec, p), None


def verify_absmap_stack(f, entries, stack, dec=None) -> Outcomes:
    """|| |A| - |B| || versus sqrt(||A+B|| ||A-B||) in the p-th power norm,
    over a stack (T, 2, n, n) of (A, B), which every trial passes; for
    Schatten p >= 2 the classical constant is 1.  One SVD of |A| - |B|,
    A + B and A - B serves every cell."""
    absolute = abs_matrix(stack)
    a, b = stack[:, 0], stack[:, 1]
    with np.errstate(over="ignore"):  # a matrix that leaves the float range gives NaN norms
        sv = _profiles(absolute[:, 0] - absolute[:, 1], a + b, a - b)
    lhs, plus, minus = _norm_rows(entries, *(lambda _, k=k: sv[:, k] for k in range(3)))
    row = (np.ones(len(stack), dtype=bool), None)
    return Outcomes.judged(row, lhs, _geometric_mean(plus, minus), stack)


def _geometric_mean(x, y):
    """sqrt(x y), taken as sqrt(x) sqrt(y) where x and y are finite and
    positive but their product overflows or falls below the normal range."""
    with np.errstate(over="ignore", under="ignore"):
        product = x * y
    finite = (0.0 < x) & (x < np.inf) & (0.0 < y) & (y < np.inf)
    split = finite & ((product == np.inf) | (product < np.finfo(float).tiny))
    out = np.sqrt(product)
    out[split] = np.sqrt(x[split]) * np.sqrt(y[split])
    return out


# --- Araki-Lieb-Thirring submajorization -----------------------------------------


def _check_alt(sem, theta, p, spec, variant):
    """The entry (theta, p) of an alt cell; CampaignConfig checks p > 0."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")
    return theta, p


def verify_alt_stack(f, entries, stack, dec=None) -> Outcomes:
    """The submajorization |Z^theta X^theta|^p << |ZX|^{theta p} for positive
    semidefinite X, Z, over a stack (T, 2, n, n) of (X, Z); the claim is
    margin >= 0.  The checks are X Hermitian, Z Hermitian, X reconstruction,
    Z reconstruction, X positive, Z positive (each by spectral.psd_stack, as
    in verify_bks_stack).  Both sides are homogeneous in X and in Z, so an
    input whose largest eigenvalue has a binary exponent e outside
    [-256, 256] is scaled by 2^-e, exactly, and ZX neither underflows to 0
    nor overflows.
    The profiles compared are upper = (mu(ZX)^theta / s)^p and lower =
    (mu(Z^theta X^theta) / s)^p, s as in verify_submaj_stack; a trial's lhs
    and ratio are the violation max(0, -margin) of their submajorization
    margin, its rhs is 1, its constant the margin, and it is flagged when the
    margin is below -SUBMAJ_TOL or NaN.  One eigendecomposition and one SVD
    of ZX serve every cell, one SVD of Z^theta X^theta every cell of that
    theta, and one pass the margins of every cell and trial that pass."""
    h, dec, _, _, row = _front(stack, _positive("XZ"), (1, 1, 1), dec=dec)
    lam = dec.eigenvalues
    clipped = np.clip(lam, 0.0, None)
    e = np.frexp(clipped.max(axis=-1, keepdims=True))[1]
    clipped = np.ldexp(clipped, np.where(np.abs(e) > 256, -e, 0))
    one = from_eigen(dec.basis, clipped)
    with np.errstate(over="ignore", invalid="ignore"):  # ZX may leave the float range
        zx = one[:, 1] @ one[:, 0]
    product = _profiles(zx)[:, 0]

    @functools.cache
    def powered_profiles(theta):
        powered = from_eigen(dec.basis, clipped ** theta)
        return _profiles(powered[:, 1] @ powered[:, 0])[:, 0]

    shape = (len(entries), len(h))
    profiles = np.empty((2, *shape, h.shape[-1]))
    for c, (theta, p) in enumerate(entries):
        bases = np.stack([product**theta, powered_profiles(theta)])
        profiles[:, c] = (bases / _unit(bases[..., :1].max(axis=0))) ** p
    ok = row[0]
    margins = np.full(shape, math.nan)
    margins[:, ok] = _submajorization_margin(profiles[0][:, ok], profiles[1][:, ok])[0]
    violation = np.where(-margins > 0.0, -margins, 0.0)
    outcomes = Outcomes.judged(row, violation, np.ones(shape), stack, margins)
    flagged = ok & ~(margins >= -SUBMAJ_TOL)  # a NaN margin fails
    return replace(outcomes, flagged=flagged)


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


def _check_telescope(sem, theta, p, spec, variant):
    """The entry p of a telescope cell."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"telescoping needs p in (0,1], got {p}")
    return p


def verify_telescope_stack(f, entries, stack, dec=None) -> Outcomes:
    """||f(A_r) - f(B)||_p^p versus the sum of the step terms
    ||f(A_m) - f(A_{m-1})||_p^p along the chain A_m = B + x_1 e_1 + ... +
    x_m e_m, over a stack (T, 1 + r, n, n) of [B, x_1 e_1, ..., x_r e_r];
    for 0 < p <= 1 and mutually orthogonal projections e_k, as the draw
    rank_one_steps makes them, the p-triangle inequality says ratio <= 1.
    theta is not used.  The checks are every input Hermitian, then per chain
    matrix A_m its reconstruction and f finite on its spectrum, in the order
    B, A_r, A_1, ..., A_{r-1}.  One eigendecomposition and one SVD of the
    chain serve every cell, and the sides of the estimate every cell of that
    p."""
    r = stack.shape[1] - 1
    order = [0, r, *range(1, r)]  # B, A_r, A_1, ..., A_{r-1}
    chain, _, _, images, row = _front(
        stack, functools.partial(apply_stack, f), chain=lambda h: np.cumsum(h, axis=1)[:, order]
    )
    fa = images[:, np.argsort(order)]  # f(A_0), ..., f(A_r)
    steps = fa[:, 1:] - fa[:, :-1]
    sv = _hermitian_profiles(images[:, 1] - images[:, 0], *steps.swapaxes(0, 1))

    @functools.cache
    def sides(p):
        powers = np.sum(sv ** p, axis=-1)  # s^p <= s for p <= 1: no overflow
        # a running total of the step terms, rounded after each step
        return powers[:, 0], sum(powers[:, 1:].T, np.zeros(len(sv)))

    lhs, rhs = np.stack([sides(p) for p in entries], axis=1)
    return Outcomes.judged(row, lhs, rhs, chain[:, :2])

