"""Deterministic, seeded generators for the matrix ensembles the verifiers use.

Sub-streams are derived from a root seed and an integer path, so campaign
cells and trials draw independent, reproducible randomness with no global
state.  ``ENSEMBLES`` names the ensembles a campaign config can ask for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import ParameterError
from .spectral import SpectralDecomposition, op_norm

# complex matrix entries per stack of trials: bounds the memory of every
# stacked draw and evaluation, in campaign cells and in the empirical
# multiplier-norm lower bound
STACK_ENTRIES = 4096


@dataclass(frozen=True)
class SeedState:
    root: int
    path: tuple = ()

    def child(self, *indices: int) -> "SeedState":
        return replace(self, path=self.path + tuple(int(i) for i in indices))

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.root, spawn_key=self.path)
        return np.random.default_rng(ss)


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


def sample_ginibre_pairs(dim: int, seeds) -> np.ndarray:
    """Draw two Ginibre matrices per seed, stacked as (len(seeds), 2, n, n):
    each seed makes the draws of two ginibre(dim, rng) calls, and the complex
    matrices are then formed once over the whole stack."""
    _check_dim(dim)
    z = np.empty((len(seeds), 2, 2, dim, dim))
    for i, seed in enumerate(seeds):
        seed.rng().standard_normal(out=z[i])
    return _complex_gaussian(z)


def sample_schur_instances(dim: int, lambda_range, mu_range, seeds):
    """Draw one instance of a Schur-multiplier ratio per seed: returns the
    ascending spectra lam and mu, each (len(seeds), n), and the Ginibre
    matrices V, (len(seeds), n, n).

    Each seed draws lam uniformly from ``lambda_range``, then mu from
    ``mu_range``, then V as ginibre(dim, rng) does.  No eigenbases are drawn:
    quasi-norms are unitarily invariant and U* V W is Ginibre whenever V is,
    so for Haar U, W and a symbol matrix m, ||U (m * (U* V W)) W*||_p / ||V||_p
    has the law of ||m * V||_p / ||V||_p.  Raises ParameterError unless each
    range (lo, hi) is finite with lo <= hi (a range of one point draws it).
    """
    _check_dim(dim)
    for name, (lo, hi) in (("lambda", lambda_range), ("mu", mu_range)):
        if not 0.0 <= hi - lo < np.inf:
            raise ParameterError(f"bad {name} range {(lo, hi)}: need finite lo <= hi")
    lam = np.empty((len(seeds), dim))
    mu = np.empty((len(seeds), dim))
    z = np.empty((len(seeds), 2, dim, dim))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        lam[i] = rng.uniform(*lambda_range, dim)
        mu[i] = rng.uniform(*mu_range, dim)
        rng.standard_normal(out=z[i])  # the draws of ginibre(dim, rng)
    lam.sort(axis=-1)
    mu.sort(axis=-1)
    return lam, mu, _complex_gaussian(z)


# --- the named ensembles of a campaign config -------------------------------------
#
# Each draw maps (dim, seeds, ensemble dict) to the structure of a verifier's
# inputs, one kind per input ("herm", "pos", "general", "contraction" or
# "step", so that a campaign's refinement knows how to perturb them), the
# inputs of every seed as one complex array (len(seeds), k, n, n) in seed
# order, and the SpectralDecomposition they were built from (positive_pair,
# fixed_pair and commuting_pair, through sample_spectral_inputs), else None.
# A draw reads only the config keys its entry lists, and its ParameterError
# checks define which values are valid.  The public functions are looked up
# as module globals when a draw runs, so rebinding them (a tracer, a test's
# spy) reaches the draws.

POSITIVE_SPECTRUM_RANGE = (0.0, 1.0)  # of positive_pair without a spectrum_range


def _per_seed(draw):
    """The stacked draw of a draw (dim, seed, ens) -> tagged inputs of one
    seed: each seed makes its draws in turn, and the stack holds each seed's
    inputs."""

    def stacked(dim, seeds, ens):
        drawn = [draw(dim, seed, ens) for seed in seeds]
        stack = np.array([[m for _, m in inp] for inp in drawn])
        return tuple(kind for kind, _ in drawn[0]), stack, None

    return stacked


def sample_spectral_inputs(draw, dim: int, seeds, ens):
    """The kinds, the stack (len(seeds), k, n, n) and the SpectralDecomposition
    of inputs built from a spectrum and a Haar basis: ``draw(dim, rng, ens)``
    gives one seed's kinds, ascending spectra (k, n) and the Gaussian draws
    (k, 2, n, n) of its bases' Ginibre matrices; the QR, phase and
    reconstruction then run once over the stack."""
    _check_dim(dim)
    kinds, lam, z = zip(*(draw(dim, seed.rng(), ens) for seed in seeds))
    bases = _unitary_from_ginibre(_complex_gaussian(np.array(z)))
    dec = SpectralDecomposition(np.array(lam), bases)
    return kinds[0], dec.matrix(), dec


def _positive_pair(dim, rng, ens):
    """Two spectra uniform on the range, each followed by its basis' draws."""
    lo, hi = spectrum_range = ens.get("spectrum_range", POSITIVE_SPECTRUM_RANGE)
    if not (0 <= lo < hi < np.inf):
        raise ParameterError(f"bad positive spectrum range {spectrum_range}")
    lam, z = np.empty((2, dim)), np.empty((2, 2, dim, dim))
    for j in range(2):
        lam[j] = rng.uniform(lo, hi, dim)
        rng.standard_normal(out=z[j])  # the draws of ginibre(dim, rng)
    return ("pos", "pos"), np.sort(lam, axis=-1), z


def _gaussian_pairs(dim, seeds, ens):
    """Two gaussian_hermitian matrices per seed, one array (len(seeds), 2, n, n)."""
    g = sample_ginibre_pairs(dim, seeds)
    return ("herm", "herm"), 0.5 * (g + g.conj().swapaxes(-1, -2)), None


def _general_pairs(dim, seeds, ens):
    """Two ginibre matrices per seed, one array (len(seeds), 2, n, n)."""
    return ("general", "general"), sample_ginibre_pairs(dim, seeds), None


def _commuting_pair(dim, rng, ens):
    """Two Gaussian spectra in one Haar basis."""
    z = rng.standard_normal((2, dim, dim))
    lam = [np.sort(rng.standard_normal(dim)) for _ in range(2)]
    return ("herm", "herm"), lam, (z, z)


def _fixed_pair(dim, rng, ens):
    """Two matrices with the given spectrum, each in its own Haar basis."""
    eigenvalues = ens.get("eigenvalues")
    if (
        not isinstance(eigenvalues, (list, tuple))
        or len(eigenvalues) != dim
        or not all(
            isinstance(v, Real) and not isinstance(v, bool) and np.isfinite(v)
            for v in eigenvalues
        )
    ):
        raise ParameterError(
            f"eigenvalues must be a list of {dim} finite numbers, got {eigenvalues!r}"
        )
    kind = "pos" if min(eigenvalues) >= 0 else "herm"
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    return (kind, kind), (lam, lam), rng.standard_normal((2, 2, dim, dim))


def _hermitian_contraction(count):
    """The draw of ``count`` Gaussian Hermitian matrices and a contraction: a
    Ginibre matrix from the seed's child stream 1, scaled to norm 1."""

    def draw(dim, seed, ens):
        _check_dim(dim)
        rng = seed.rng()
        herms = [("herm", gaussian_hermitian(dim, rng)) for _ in range(count)]
        g = ginibre(dim, seed.child(1).rng())
        return herms + [("contraction", g / op_norm(g))]

    return draw


def _rank(dim, ens):
    """The number of rank-one steps of a rank_one_steps draw at this dim."""
    r = ens.get("rank", min(dim, 3))
    if isinstance(r, bool) or not isinstance(r, Integral) or r < 1:
        raise ParameterError(f"rank must be an integer >= 1, got {r!r}")
    return r


def _rank_one_steps(dim, seed, ens):
    """B and the rank-one steps x_k e_k of a finite-rank telescope."""
    lo, hi = ens.get("magnitudes_range", [1e-2, 1.0])
    b, xs, es = rank_r_steps(dim, _rank(dim, ens), (lo, hi), seed.rng())
    # (e + e*)/2 is exactly Hermitian, so a verifier's symmetrization keeps
    # each step's bits
    return [("herm", b)] + [("step", x * (0.5 * (e + e.conj().T))) for x, e in zip(xs, es)]


# name -> (draw, the config keys besides "name" that the draw reads)
ENSEMBLES = {
    "gaussian_pair": (_gaussian_pairs, ()),
    "positive_pair": (lambda *a: sample_spectral_inputs(_positive_pair, *a), ("spectrum_range",)),
    "general_pair": (_general_pairs, ()),
    "commuting_pair": (lambda *a: sample_spectral_inputs(_commuting_pair, *a), ()),
    "fixed_pair": (lambda *a: sample_spectral_inputs(_fixed_pair, *a), ("eigenvalues",)),
    "hermitian_contraction": (_per_seed(_hermitian_contraction(1)), ()),
    "hermitian_pair_contraction": (_per_seed(_hermitian_contraction(2)), ()),
    "rank_one_steps": (_per_seed(_rank_one_steps), ("rank", "magnitudes_range")),
}


def inputs_per_trial(ens: dict, dim: int) -> int:
    """The number of matrices the draw of the ensemble ``ens`` (its dict with
    its name) stacks per trial at this dim."""
    if ens["name"] == "rank_one_steps":
        return 1 + _rank(dim, ens)
    return 3 if ens["name"] == "hermitian_pair_contraction" else 2
