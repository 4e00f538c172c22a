"""Singular value profiles, Schatten / Ky Fan quasi-norms, p-th power norms,
and submajorization checks.

A profile is a non-increasing nonnegative float vector (the singular values
of a matrix, sorted descending).  All norms are evaluated on profiles, so the
matrix-level functions below reduce to one SVD plus vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import as_matrix

SUBMAJ_TOL = 1e-10


def singular_values(x) -> np.ndarray:
    """Singular values of a matrix, sorted descending."""
    m = as_matrix(x)
    return np.linalg.svd(m, compute_uv=False)


# --- norm specifications ----------------------------------------------------


@dataclass(frozen=True)
class Schatten:
    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise ParameterError(f"Schatten exponent must be positive, got {self.p}")


@dataclass(frozen=True)
class KyFan:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"Ky Fan index must be >= 1, got {self.k}")


@dataclass(frozen=True)
class PowerOf:
    base: "Schatten | KyFan"
    p: float

    def __post_init__(self):
        if not (self.p > 0 and np.isfinite(self.p)):
            raise ParameterError(f"power exponent must be finite positive, got {self.p}")
        check_fully_symmetric(self.base)


NormSpec = Schatten | KyFan | PowerOf


def check_fully_symmetric(spec: NormSpec):
    """Raise ParameterError unless spec is a fully symmetric norm: Ky Fan, or
    Schatten with p >= 1 (p = inf is the operator norm)."""
    if isinstance(spec, KyFan) or (isinstance(spec, Schatten) and spec.p >= 1):
        return
    raise ParameterError(f"{spec!r} is not fully symmetric (need Ky Fan or Schatten with p >= 1)")


def norm_of_profile(values, spec: NormSpec):
    """The norm ``spec`` of a profile (n,), a float; or of every profile of a
    stack (..., n), an array (...) whose entries have the bits of each
    profile's own norm; p-th powers scale each profile first (_power_norm)."""
    v = np.asarray(values, dtype=float)
    s = np.atleast_2d(v)  # a single profile takes the path of a stack
    with np.errstate(over="ignore"):  # a norm may exceed the float range
        if not s.shape[-1]:
            out = np.zeros(s.shape[:-1])
        elif isinstance(spec, Schatten):
            if np.isinf(spec.p):
                out = s[..., 0]
            else:
                out = _power_norm(s, spec.p, lambda w: np.sum(w, axis=-1))
        elif isinstance(spec, KyFan):
            out = s[..., : spec.k].sum(axis=-1)
        elif isinstance(spec, PowerOf):
            out = _power_norm(s, spec.p, lambda w: norm_of_profile(w, spec.base))
        else:
            raise ParameterError(f"unknown norm spec {spec!r}")
    return float(out[0]) if v.ndim == 1 else out


def _power_norm(s, p, base):
    """base(s^p)^(1/p) over profiles (..., n) as s_max base((s / s_max)^p)^(1/p)
    unless p is 1, so no power overflows; if s_max is 0, inf or NaN, it is that."""
    if p == 1.0:
        return base(s)
    top = np.max(s, axis=-1)
    unit = _unit(top)
    return np.where(unit == top, unit * base((s / unit[..., None]) ** p) ** (1.0 / p), top)


def _unit(top):
    """The scale of profiles whose largest entries are top: 1 where top is 0, inf or NaN."""
    return np.where((top > 0.0) & (top < np.inf), top, 1.0)


def parse_norm_spec(text: str) -> NormSpec:
    """Parse the spec grammar: schatten:p | kyfan:k | power:<base>:p.

    ``p`` accepts "inf" for the operator norm.
    """
    tokens = text.strip().split(":")

    def fail(pos, msg):
        raise ParameterError(f"bad norm spec {text!r} at token {pos}: {msg}")

    def number(pos, convert=float):
        try:
            return convert(tokens[pos])
        except ValueError:
            fail(pos, f"{tokens[pos]!r} is not {'an integer' if convert is int else 'a number'}")

    if not tokens or not tokens[0]:
        fail(0, "empty spec")
    kind = tokens[0].lower()
    if kind == "schatten":
        if len(tokens) != 2:
            fail(1, "expected schatten:p")
        p = np.inf if tokens[1].lower() in ("inf", "infinity") else number(1)
        return Schatten(p)
    if kind == "kyfan":
        if len(tokens) != 2:
            fail(1, "expected kyfan:k")
        return KyFan(number(1, int))
    if kind == "power":
        if len(tokens) < 3:
            fail(1, "expected power:<base>:p")
        base = parse_norm_spec(":".join(tokens[1:-1]))
        if isinstance(base, PowerOf):
            fail(1, "power base must be kyfan or schatten with p >= 1")
        return PowerOf(base, number(len(tokens) - 1))
    fail(0, f"unknown norm kind {kind!r}")


# --- submajorization ---------------------------------------------------------


def _partial_sums(a, b):
    """The partial sums of profiles a and b (..., n) of one length."""
    return tuple(np.cumsum(np.asarray(x, dtype=float), axis=-1) for x in (a, b))


def _submajorization_margin(upper, lower):
    """The least gap of the partial sums of upper and lower over the larger
    total, and its index, for every pair of profiles (..., n), arrays (...):
    the larger total taken as Python's max takes it (a NaN total of upper
    wins, one of lower does not), and margin 0 at index 0 where that total
    is <= 0.  lower is submajorized by upper when the margin is >= 0."""
    cu, cl = _partial_sums(upper, lower)
    scale = np.where(cl[..., -1] > cu[..., -1], cl[..., -1], cu[..., -1])[..., None]
    gaps = np.divide(cu - cl, scale, out=np.zeros(cu.shape), where=~(scale <= 0.0))
    worst = np.argmin(gaps, axis=-1)
    return np.take_along_axis(gaps, worst[..., None], axis=-1)[..., 0], worst


def least_domination_constant(upper, lower):
    """Smallest c >= 0 such that lower's partial sums are <= c * upper's, a
    float for profiles (n,) or an array (...) for stacks (..., n).  It is inf
    when a partial sum of ``lower`` is positive while upper's is not; a NaN
    partial-sum ratio is skipped."""
    cu, cl = _partial_sums(upper, lower)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(cu > 0.0, cl / cu, np.where(cl > 0.0, np.inf, np.nan))
    c = np.fmax.reduce(ratios, axis=-1, initial=0.0)
    return float(c) if cu.ndim == 1 else c
