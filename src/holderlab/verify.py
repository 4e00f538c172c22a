"""Verifiers for the operator inequalities: each computes both sides of one
estimate on concrete matrices and records the ratio.

Ratio conventions: every record satisfies ratio = lhs / rhs with 0/0 -> 0.
For the reverse-direction estimates (inverse functions, reverse powers) the
verifier picks lhs/rhs so that small ratios, not large ones, witness the
constant; each docstring states the orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    CapabilityError,
    DomainError,
    HolderLabError,
    ParameterError,
    PreconditionError,
)
from .functions import ScalarFunction, d_of_p, seminorm
from .norms import (
    NormSpec,
    PowerOf,
    Schatten,
    check_fully_symmetric,
    least_domination_constant,
    norm,
    norm_of_profile,
    singular_values,
    submajorizes,
)
from .spectral import (
    _hermitian_error,
    _reconstruction_error,
    abs_matrix,
    apply_function,
    as_hermitian,
    as_square,
    cayley,
    commutator,
    eigh_stack,
    from_eigen,
    hermitian_stack,
    op_norm,
    psd_stack,
    signed_power_matrix,
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


def make_record(name, lhs, rhs, abs_tol, digest="", constant=None) -> VerificationRecord:
    """Record with ratio = lhs / rhs, 0/0 -> 0.  A record with rhs <= 0 is
    flagged when lhs exceeds ``abs_tol``: a float, or a zero-argument
    callable that computes it, called only for such records."""
    lhs, rhs = float(lhs), float(rhs)
    if rhs > 0.0:
        ratio = lhs / rhs
        flagged = False
    else:
        ratio = 0.0
        flagged = lhs > (abs_tol() if callable(abs_tol) else abs_tol)
    return VerificationRecord(
        name=name,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        holds_with_constant=constant,
        inputs_digest=digest,
        flagged=flagged,
    )


def _abs_tol(dim, *mats):
    """The flagging tolerance of a record on these inputs, deferred: it costs
    an SVD per matrix and make_record needs it only when rhs <= 0."""

    def tol():
        scale = max((op_norm(m) for m in mats), default=0.0)
        return ABS_TOL_COEFF * dim * (1.0 + scale)

    return tol


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


def _theta_profile(m, theta):
    """Profile of |M|^theta: the singular values of M raised entrywise."""
    return singular_values(m) ** theta


def _raise_failed(outcomes):
    """The record of a stack of one, or raise its error."""
    (outcome,) = outcomes
    if isinstance(outcome, HolderLabError):
        raise outcome
    return outcome


# --- the difference estimates ---------------------------------------------------


def verify_main(f: ScalarFunction, theta, p, a, b, sem_cache=None, digest="") -> VerificationRecord:
    """||f(A) - f(B)||_p versus seminorm(f) * || |A-B|^theta ||_p: the
    symmetric estimate in E^(p) for E = S_1, since ||X||_p is the p-th power
    norm of the trace class."""
    rec = verify_symmetric(f, theta, p, Schatten(1), a, b, sem_cache, digest)
    return replace(rec, name="main")


def check_bks_params(theta, spec: NormSpec):
    """Raise ParameterError unless theta lies in (0,1) and spec is fully
    symmetric."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")
    check_fully_symmetric(spec)


def verify_bks_stack(theta, spec: NormSpec, pairs, digests) -> list:
    """verify_bks over a stack (T, 2, n, n) of (X, Y) pairs in one batched
    pass: per pair its record, or the error verify_bks raises on it, from the
    first failed check in the order X Hermitian, X reconstruction, X positive,
    then the same for Y.  ``numpy.linalg.LinAlgError`` from the eigensolver
    or the SVD propagates."""
    check_bks_params(theta, spec)
    h, herm_ok, dev, scale = hermitian_stack(pairs)
    dec, recon, eig_ok, residual = eigh_stack(h)
    ok = herm_ok & eig_ok & psd_stack(dec.eigenvalues)
    good = ok.all(axis=-1)
    with np.errstate(all="ignore"):  # pairs that are not ok may hold garbage
        powered = from_eigen(dec.basis, np.clip(dec.eigenvalues, 0.0, None) ** theta)
        diffs = np.stack([powered[:, 0] - powered[:, 1], recon[:, 0] - recon[:, 1]], axis=1)
        sv = np.linalg.svd(diffs, compute_uv=False)
    n = pairs.shape[-1]
    out = [
        make_record(
            "bks",
            norm_of_profile(s_lhs, spec),
            norm_of_profile(s_rhs ** theta, spec),
            _abs_tol(n, x, y),
            digest,
        )
        if g
        else None
        for (s_lhs, s_rhs), g, (x, y), digest in zip(sv, good, pairs, digests)
    ]
    for i in np.flatnonzero(~good):
        j = int(np.argmin(ok[i]))  # the first matrix that fails
        if not herm_ok[i, j]:
            out[i] = _hermitian_error(dev[i, j], scale[i, j])
        elif not eig_ok[i, j]:
            out[i] = _reconstruction_error(residual[i, j])
        else:
            out[i] = DomainError(
                f"{'XY'[j]} must be positive semidefinite (min eigenvalue "
                f"{dec.eigenvalues[i, j].min():.3e})"
            )
    return out


def verify_bks(theta, spec: NormSpec, x, y, digest="") -> VerificationRecord:
    """||X^theta - Y^theta|| versus || |X-Y|^theta || for positive X, Y in a
    fully symmetric norm; the expected constant is exactly 1."""
    check_bks_params(theta, spec)
    pair = np.stack([as_square(x), as_square(y)])
    return _raise_failed(verify_bks_stack(theta, spec, pair[None], [digest]))


def verify_submajorization(f: ScalarFunction, theta, p, x, y, sem_cache=None, digest=""):
    """mu(f(X) - f(Y))^p against seminorm^p * mu(|X-Y|^theta)^p: returns the
    submajorization report at constant 1 plus a record whose ratio is the
    least constant making the domination hold (the empirical constant to the
    p-th power), realized at the worst partial sum."""
    xm, ym = as_hermitian(x), as_hermitian(y)
    d = d_of_p(p)
    sem = _seminorm_value(f, d, theta, sem_cache)
    lower = singular_values(apply_function(f, xm) - apply_function(f, ym)) ** p
    upper = (sem ** p) * _theta_profile(xm - ym, theta) ** p
    report = submajorizes(upper, lower)
    c = least_domination_constant(upper, lower)
    cu, cl = np.cumsum(upper), np.cumsum(lower)
    abs_tol = _abs_tol(xm.shape[0], xm, ym)
    if np.isfinite(c) and c > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(cu > 0.0, cl / cu, 0.0)
        k = int(np.argmax(ratios))
        rec = make_record("submaj", cl[k], cu[k], abs_tol, digest, constant=c)
    else:
        rec = make_record("submaj", float(cl[-1]), float(cu[-1]), abs_tol, digest, constant=c)
    return report, rec


def verify_symmetric(
    f: ScalarFunction, theta, p, base: NormSpec, x, y, sem_cache=None, digest=""
) -> VerificationRecord:
    """The main estimate in the p-th power norm of a fully symmetric base."""
    spec = PowerOf(base, p)
    xm, ym = as_hermitian(x), as_hermitian(y)
    sem = _seminorm_value(f, d_of_p(p), theta, sem_cache)
    lhs = norm(apply_function(f, xm) - apply_function(f, ym), spec)
    rhs = sem * norm_of_profile(_theta_profile(xm - ym, theta), spec)
    return make_record("symmetric", lhs, rhs, _abs_tol(xm.shape[0], xm, ym), digest)


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
    dec, _, recon_ok, residual = eigh_stack(h)
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
            return _reconstruction_error(residual[idx])
        if sign[idx] == 0.0:
            return DomainError(f"{f.name} is not strictly monotone on the sampled range")
        return DomainError(f"{f.name}: could not bracket inverse at {lam[idx][~found[idx]][0]}")

    return from_eigen(dec.basis, vals), ok & found.all(axis=-1), error


def check_inverse_params(theta, base: NormSpec):
    """Raise ParameterError unless theta > 1 and base is fully symmetric."""
    if not theta > 1.0:
        raise ParameterError(f"inverse verifier needs theta > 1, got {theta}")
    check_fully_symmetric(base)


def verify_inverse_stack(
    f: ScalarFunction, theta, p, base: NormSpec, pairs, digests, sem_cache=None
) -> list:
    """verify_inverse over a stack (T, 2, n, n) of (X, Y) pairs in one
    batched pass: per pair its record, or the error verify_inverse raises on
    it, from the first failed check in the order X Hermitian, Y Hermitian,
    then inverse_apply's checks on X, then on Y.
    ``numpy.linalg.LinAlgError`` from the eigensolver or the SVD
    propagates."""
    check_inverse_params(theta, base)
    spec = PowerOf(base, p)
    h, herm_ok, dev, scale = hermitian_stack(pairs)
    sem = _seminorm_value(f, d_of_p(p), 1.0 / theta, sem_cache)
    inv, inv_ok, inv_error = inverse_apply(f, h)
    good = (herm_ok & inv_ok).all(axis=-1)
    with np.errstate(all="ignore"):  # pairs that are not ok may hold garbage
        diffs = np.stack([inv[:, 0] - inv[:, 1], h[:, 0] - h[:, 1]], axis=1)
        sv = np.linalg.svd(diffs, compute_uv=False)
    n = pairs.shape[-1]
    out = [
        make_record(
            "inverse",
            sem ** theta * norm_of_profile(s_lhs, spec),
            norm_of_profile(s_rhs ** theta, spec),
            _abs_tol(n, xm, ym),
            digest,
        )
        if g
        else None
        for (s_lhs, s_rhs), g, (xm, ym), digest in zip(sv, good, h, digests)
    ]
    for i in np.flatnonzero(~good):
        if not herm_ok[i].all():
            j = int(np.argmin(herm_ok[i]))
            out[i] = _hermitian_error(dev[i, j], scale[i, j])
        else:
            out[i] = inv_error((i, int(np.argmin(inv_ok[i]))))
    return out


def verify_inverse(
    f: ScalarFunction, theta, p, base: NormSpec, x, y, sem_cache=None, digest=""
) -> VerificationRecord:
    """For invertible f in the 1/theta class (theta > 1):
    lhs = seminorm(f)^theta * ||f^{-1}(X) - f^{-1}(Y)||_{E^(p)},
    rhs = || |X-Y|^theta ||_{E^(p)}; the estimate says ratio >= 1/C."""
    check_inverse_params(theta, base)
    pair = np.stack([as_square(x), as_square(y)])
    return _raise_failed(verify_inverse_stack(f, theta, p, base, pair[None], [digest], sem_cache))


def _signed_expm1(t):
    return np.sign(t) * np.expm1(np.abs(t))


# variant -> (Hermitian X, theta) -> g(X), the map the reverse verifier applies
REVERSE_VARIANTS = {
    "power": lambda xm, theta: signed_power_matrix(xm, theta),  # sgn(X)|X|^theta
    "expm1": lambda xm, theta: apply_function(_signed_expm1, xm),
}


def verify_reverse_power(
    theta, p, base: NormSpec, x, y, variant="power", digest=""
) -> VerificationRecord:
    """||g(X) - g(Y)|| versus || |X-Y|^theta || for theta > 1, with g(t) =
    sgn(t)|t|^theta (variant "power") or sgn(t) expm1(|t|) (variant "expm1");
    the estimate says the ratio stays above a positive constant."""
    if not theta > 1.0:
        raise ParameterError(f"reverse power needs theta > 1, got {theta}")
    spec = PowerOf(base, p)
    xm, ym = as_hermitian(x), as_hermitian(y)
    if variant not in REVERSE_VARIANTS:
        raise ParameterError(f"unknown reverse variant {variant!r}")
    g = REVERSE_VARIANTS[variant]
    gx, gy = g(xm, theta), g(ym, theta)
    lhs = norm(gx - gy, spec)
    rhs = norm_of_profile(_theta_profile(xm - ym, theta), spec)
    return make_record(f"reverse:{variant}", lhs, rhs, _abs_tol(xm.shape[0], xm, ym), digest)


# --- commutators, quasi-commutators, absolute value ------------------------------


def verify_commutator(
    f: ScalarFunction, theta, p, base: NormSpec, x, b, sem_cache=None, digest=""
) -> VerificationRecord:
    """||[f(X), B]|| versus seminorm * || |[X,B]|^theta || * ||B||^(1-theta)
    in the p-th power norm of the base."""
    spec = PowerOf(base, p)
    xm = as_hermitian(x)
    bm = as_square(b)
    sem = _seminorm_value(f, d_of_p(p), theta, sem_cache)
    lhs = norm(commutator(apply_function(f, xm), bm), spec)
    rhs = (
        sem
        * norm_of_profile(_theta_profile(commutator(xm, bm), theta), spec)
        * op_norm(bm) ** (1.0 - theta)
    )
    return make_record("commutator", lhs, rhs, _abs_tol(xm.shape[0], xm, bm), digest)


def verify_quasi_commutator(
    f: ScalarFunction, theta, p, base: NormSpec, a, b, r, sem_cache=None, digest=""
) -> VerificationRecord:
    """||f(A)R - Rf(B)|| versus seminorm * || |AR-RB|^theta || * ||R||^(1-theta)."""
    spec = PowerOf(base, p)
    am, bm, rm = as_hermitian(a), as_hermitian(b), as_square(r)
    sem = _seminorm_value(f, d_of_p(p), theta, sem_cache)
    lhs = norm(apply_function(f, am) @ rm - rm @ apply_function(f, bm), spec)
    rhs = (
        sem
        * norm_of_profile(_theta_profile(am @ rm - rm @ bm, theta), spec)
        * op_norm(rm) ** (1.0 - theta)
    )
    return make_record("quasicommutator", lhs, rhs, _abs_tol(am.shape[0], am, bm, rm), digest)


def verify_abs_map(base: NormSpec, p, a, b, digest="") -> VerificationRecord:
    """|| |A| - |B| || versus sqrt(||A+B|| ||A-B||) in the p-th power norm;
    for Schatten p >= 2 the classical constant is 1."""
    spec = PowerOf(base, p)
    am, bm = as_square(a), as_square(b)
    if am.shape != bm.shape:
        raise ParameterError(f"shape mismatch {am.shape} vs {bm.shape}")
    lhs = norm(abs_matrix(am) - abs_matrix(bm), spec)
    rhs = math.sqrt(norm(am + bm, spec) * norm(am - bm, spec))
    return make_record("absmap", lhs, rhs, _abs_tol(am.shape[0], am, bm), digest)


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


@dataclass(frozen=True)
class TelescopeResult:
    record: VerificationRecord
    chain_lhs: float      # ||f(A_n) - f(B)||_p^p
    chain_rhs: float      # sum of the step terms ||f(A_{m+1}) - f(A_m)||_p^p
    rhs_exact_residual: float


def telescope_finite_rank(
    f: ScalarFunction, theta, p, b, steps, digest=""
) -> TelescopeResult:
    """p-triangle chain along rank-one steps A_m = B + sum x_k e_k, plus the
    exact identity || |A-B|^theta ||_p^p = sum |x_k|^{theta p} rank(e_k)."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"telescoping needs p in (0,1], got {p}")
    bm = as_hermitian(b)
    n = bm.shape[0]
    projs = [as_hermitian(e) for _, e in steps]
    xs = [float(x) for x, _ in steps]
    tol = 1e-8
    for i, e in enumerate(projs):
        if op_norm(e @ e - e) > tol:
            raise PreconditionError(f"step {i}: not a projection")
        for j in range(i):
            if op_norm(projs[i] @ projs[j]) > tol:
                raise PreconditionError(f"steps {j},{i}: projections not orthogonal")
    mats = [bm]
    for x, e in zip(xs, projs):
        mats.append(mats[-1] + x * e)
    a_final = mats[-1]
    fb = apply_function(f, bm)
    chain_lhs = norm(apply_function(f, a_final) - fb, Schatten(p)) ** p
    chain_rhs = 0.0
    for m in range(len(xs)):
        chain_rhs += norm(
            apply_function(f, mats[m + 1]) - apply_function(f, mats[m]), Schatten(p)
        ) ** p
    # the difference has rank sum(rank e_k); a zero floor keeps subtraction
    # noise at the kernel from being inflated by the theta power
    sv = singular_values(a_final - bm)
    sv[sv < 1e-12 * (1.0 + sv.max(initial=0.0))] = 0.0
    lhs_norm = norm_of_profile(sv ** theta, Schatten(p)) ** p
    rhs_exact = sum(
        abs(x) ** (theta * p) * round(float(np.trace(e).real)) for x, e in zip(xs, projs)
    )
    denom = max(lhs_norm, rhs_exact, 1e-300)
    residual = abs(lhs_norm - rhs_exact) / denom
    rec = make_record("telescope", chain_lhs, chain_rhs, _abs_tol(n, bm, a_final), digest)
    return TelescopeResult(
        record=rec, chain_lhs=chain_lhs, chain_rhs=chain_rhs, rhs_exact_residual=residual
    )
