"""Deterministic, seeded generators for the matrix ensembles the verifiers use.

Sub-streams are derived from a root seed and an integer path, so campaign
cells and trials draw independent, reproducible randomness with no global
state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .spectral import from_eigen, op_norm


@dataclass(frozen=True)
class SeedState:
    root: int
    path: tuple = ()

    def child(self, *indices: int) -> "SeedState":
        return replace(self, path=self.path + tuple(int(i) for i in indices))

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.root, spawn_key=self.path)
        return np.random.default_rng(ss)


# --- ensemble specifications --------------------------------------------------


@dataclass(frozen=True)
class GaussianHermitian:
    dim: int


@dataclass(frozen=True)
class FixedSpectrum:
    eigenvalues: tuple
    haar_basis: bool = True


@dataclass(frozen=True)
class PositivePair:
    dim: int
    spectrum_range: tuple = (0.0, 1.0)


@dataclass(frozen=True)
class RankRDifference:
    dim: int
    r: int
    magnitudes_range: tuple = (1e-2, 1.0)


@dataclass(frozen=True)
class DegenerateSpectrum:
    dim: int
    multiplicities: tuple


@dataclass(frozen=True)
class CommutingPair:
    dim: int


@dataclass(frozen=True)
class Contraction:
    dim: int


@dataclass(frozen=True)
class GeneralGaussian:
    dim: int


EnsembleSpec = (
    GaussianHermitian
    | FixedSpectrum
    | PositivePair
    | RankRDifference
    | DegenerateSpectrum
    | CommutingPair
    | Contraction
    | GeneralGaussian
)


def _check_dim(dim):
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussians."""
    return _complex_gaussian(rng.standard_normal((2, dim, dim)))


def _complex_gaussian(z: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt(2) from real standard Gaussians stacked as
    (..., 2, n, n) with re at index 0 and im at index 1 of axis -3."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the R diagonal
    phase divided out (plain QR is biased)."""
    return _unitary_from_ginibre(ginibre(dim, rng))


def _unitary_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., n, n) of Ginibre matrices."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = ginibre(dim, rng)
    return 0.5 * (g + g.conj().T)


def fixed_spectrum(eigenvalues, rng: np.random.Generator, haar_basis: bool = True):
    """Hermitian matrix with the given spectrum; returns (matrix, eigen-ascending,
    unitary basis)."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    n = lam.size
    u = haar_unitary(n, rng) if haar_basis else np.eye(n, dtype=complex)
    return from_eigen(u, lam), lam, u


def rank_r_steps(dim: int, r: int, magnitudes_range, rng: np.random.Generator):
    """B Gaussian Hermitian plus r orthogonal rank-one steps (x_k, e_k) with
    |x_k| log-uniform over the range and random sign."""
    if r > dim:
        raise ParameterError(f"rank {r} exceeds dimension {dim}")
    lo, hi = magnitudes_range
    if not (0 < lo <= hi):
        raise ParameterError(f"bad magnitudes range {magnitudes_range}")
    b = gaussian_hermitian(dim, rng)
    frame = haar_unitary(dim, rng)
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=r))
    signs = rng.choice([-1.0, 1.0], size=r)
    xs = signs * mags
    es = [np.outer(frame[:, k], frame[:, k].conj()) for k in range(r)]
    return b, list(xs), es


def sample_positive_pairs(spec: PositivePair, seeds) -> np.ndarray:
    """Draw one PositivePair per seed, stacked as (len(seeds), 2, n, n).

    Each seed draws exactly what ``sample(spec, seed)`` draws, in the same
    order (spectrum of X, Ginibre of X's basis, then the same for Y); the
    QR, phase and reconstruction then run once over the whole stack.
    """
    _check_dim(spec.dim)
    lo, hi = spec.spectrum_range
    if not (0 <= lo < hi):
        raise ParameterError(f"bad positive spectrum range {spec.spectrum_range}")
    n = spec.dim
    lam = np.empty((len(seeds), 2, n))
    z = np.empty((len(seeds), 2, 2, n, n))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        for j in range(2):
            lam[i, j] = rng.uniform(lo, hi, n)
            rng.standard_normal(out=z[i, j])  # the draws of ginibre(n, rng)
    lam.sort(axis=-1)
    return from_eigen(_unitary_from_ginibre(_complex_gaussian(z)), lam)


def sample(spec: EnsembleSpec, seed: SeedState):
    """Draw from an ensemble.  Pair ensembles return a tuple of matrices."""
    if isinstance(spec, PositivePair):
        x, y = sample_positive_pairs(spec, [seed])[0]
        return x, y
    rng = seed.rng()
    if isinstance(spec, GaussianHermitian):
        _check_dim(spec.dim)
        return gaussian_hermitian(spec.dim, rng)
    if isinstance(spec, FixedSpectrum):
        m, _, _ = fixed_spectrum(spec.eigenvalues, rng, spec.haar_basis)
        return m
    if isinstance(spec, RankRDifference):
        _check_dim(spec.dim)
        b, xs, es = rank_r_steps(spec.dim, spec.r, spec.magnitudes_range, rng)
        a = b + sum(x * e for x, e in zip(xs, es))
        return a, b
    if isinstance(spec, DegenerateSpectrum):
        _check_dim(spec.dim)
        if sum(spec.multiplicities) != spec.dim:
            raise ParameterError(
                f"multiplicities {spec.multiplicities} must sum to dim {spec.dim}"
            )
        distinct = rng.standard_normal(len(spec.multiplicities))
        lam = np.repeat(distinct, spec.multiplicities)
        m, _, _ = fixed_spectrum(lam, rng)
        return m
    if isinstance(spec, CommutingPair):
        _check_dim(spec.dim)
        u = haar_unitary(spec.dim, rng)
        la = np.sort(rng.standard_normal(spec.dim))
        lb = np.sort(rng.standard_normal(spec.dim))
        return from_eigen(u, la), from_eigen(u, lb)
    if isinstance(spec, Contraction):
        _check_dim(spec.dim)
        g = ginibre(spec.dim, rng)
        return g / op_norm(g)
    if isinstance(spec, GeneralGaussian):
        _check_dim(spec.dim)
        return ginibre(spec.dim, rng)
    raise ParameterError(f"unknown ensemble spec {spec!r}")
