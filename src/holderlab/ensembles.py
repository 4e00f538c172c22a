"""Deterministic, seeded generators for the matrix ensembles the verifiers use.

Sub-streams are derived from a root seed and an integer path, so campaign
cells and trials draw independent, reproducible randomness with no global
state.  ``ENSEMBLES`` names the ensembles a campaign config can ask for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache
from numbers import Integral, Real
from typing import Callable, NamedTuple

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
        """numpy's default_rng(SeedSequence(entropy=root, spawn_key=path)),
        bit for bit, built without the SeedSequence object (see the
        per-trial generators below)."""
        root, path = self.root, self.path
        if not path:
            state = _pool_state(root)
        else:
            state = _pool_state(root, *path[:-1])
            last = path[-1]
            if type(last) is int and 0 <= last <= _M32:  # one word, as a trial index
                state = _absorbed(state, last)
            else:
                for word in _words(last):
                    state = _absorbed(state, word)
        seed = np.array(_generated(state), dtype=np.uint64)
        pcg64, generator = _numpy_random()
        return generator(pcg64(_Seeded(seed)))


# --- per-trial generators -------------------------------------------------------
#
# SeedState.rng runs numpy's SeedSequence algorithm with its default pool of
# four 32-bit words.  The entropy words are the root's 32-bit words
# (little-endian, [0] for 0) zero-padded to 4, then each path element's words:
# the padding is numpy's rule for a non-empty spawn key, and an empty one gives
# the same pool with or without it.  The first four words hash into the pool,
# which is then mixed with itself; each further word is hashed into every pool
# word.  The hash constant runs on across all of it, so a prefix's state is the
# pool and the constant, cached per (root, prefix): every trial of a campaign
# dim shares the prefix (3, dim) and mixes in only its trial index.

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's hash constant before and after each of the eight output words
_OUT_HASH = tuple(
    (0x8B51F9DD * 0x58F38DED**k & _M32, 0x8B51F9DD * 0x58F38DED ** (k + 1) & _M32)
    for k in range(8)
)


def _words(n):
    """The 32-bit words of an integer n >= 0, least significant first; a
    non-integer or a negative n raises what SeedSequence raises."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"seed must be integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _absorbed(state, word):
    """The state (pool words, hash constant) once one more entropy word is
    hashed into each pool word.  Unrolled, as _generated: a trial's generator
    runs it once."""
    p0, p1, p2, p3, h = state
    v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
    r = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _M32
    p0 = r ^ r >> 16
    v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
    r = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _M32
    p1 = r ^ r >> 16
    v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
    r = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _M32
    p2 = r ^ r >> 16
    v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
    r = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _M32
    return p0, p1, p2, r ^ r >> 16, h


def _generated(state):
    """SeedSequence.generate_state(4, np.uint64) as ints: the pool hashed,
    word by word in cycle, into eight 32-bit words, paired little-endian."""
    p0, p1, p2, p3, _ = state
    (x0, m0), (x1, m1), (x2, m2), (x3, m3), (x4, m4), (x5, m5), (x6, m6), (x7, m7) = _OUT_HASH
    w0 = (p0 ^ x0) * m0 & _M32
    w1 = (p1 ^ x1) * m1 & _M32
    w2 = (p2 ^ x2) * m2 & _M32
    w3 = (p3 ^ x3) * m3 & _M32
    w4 = (p0 ^ x4) * m4 & _M32
    w5 = (p1 ^ x5) * m5 & _M32
    w6 = (p2 ^ x6) * m6 & _M32
    w7 = (p3 ^ x7) * m7 & _M32
    return [
        (w0 ^ w0 >> 16) | (w1 ^ w1 >> 16) << 32,
        (w2 ^ w2 >> 16) | (w3 ^ w3 >> 16) << 32,
        (w4 ^ w4 >> 16) | (w5 ^ w5 >> 16) << 32,
        (w6 ^ w6 >> 16) | (w7 ^ w7 >> 16) << 32,
    ]


@lru_cache(maxsize=256, typed=True)
def _pool_state(root, *prefix):
    """The state after the entropy words of root and prefix.  The cache keys
    on each argument's type, so that a float equal to an int raises as it
    would at a miss."""
    if prefix:
        state = _pool_state(root, *prefix[:-1])
        for word in _words(prefix[-1]):
            state = _absorbed(state, word)
        return state
    words = _words(root)
    words += [0] * (4 - len(words))
    pool, h = [], _INIT_A
    for word in words[:4]:
        v = (word ^ h) * (h := h * _MULT_A & _M32) & _M32
        pool.append(v ^ v >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = (pool[src] ^ h) * (h := h * _MULT_A & _M32) & _M32
                r = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _M32
                pool[dst] = r ^ r >> 16
    state = (*pool, h)
    for word in words[4:]:
        state = _absorbed(state, word)
    return state


class _Seeded:
    """The ISeedSequence PCG64 seeds from: generate_state(4, np.uint64), the
    only call PCG64 makes, returns the given words."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


@cache
def _numpy_random():
    """PCG64 and Generator, with _Seeded registered as an ISeedSequence, on
    first use: numpy does not import numpy.random, and importing it with
    this module would add to the memory of every process, drawing or not."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Seeded)
    return np.random.PCG64, np.random.Generator


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
    _check_steps(dim, r, magnitudes_range)
    return _steps(dim, r, magnitudes_range, rng)


def _check_steps(dim, r, magnitudes_range):
    """rank_r_steps' checks: r at most dim and 0 < lo <= hi < inf."""
    if r > dim:
        raise ParameterError(f"rank {r} exceeds dimension {dim}")
    lo, hi = magnitudes_range
    if not (0 < lo <= hi < np.inf):
        raise ParameterError(f"bad magnitudes range {magnitudes_range}")


def _steps(dim, r, magnitudes_range, rng):
    """rank_r_steps without its checks."""
    lo, hi = magnitudes_range
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
# Each entry of ENSEMBLES pairs a check with a draw.  The check (dim, ens) ->
# kinds raises the ParameterError that makes the ensemble dict ``ens``
# invalid at this dim, and otherwise returns the kinds of a trial's inputs
# ("herm", "pos", "general", "contraction" or "step", so that a config can
# require positive inputs and a counterexample names each input's kind); it
# draws nothing, so a config checks its ensemble at load without a draw.  The
# draw (dim, seeds, ens) -> (stack, dec) runs on a checked ens: it draws the
# inputs of every seed as one complex array (len(seeds), len(kinds), n, n) in
# seed order, and dec is the SpectralDecomposition they were built from
# (positive_pair, fixed_pair and commuting_pair), else None.  Both read only
# the config keys their entry lists.  sample_ensemble runs the check once per stack, then the draw; the
# public functions a draw calls are looked up as module globals when it runs,
# so rebinding them (a tracer, a test's spy) reaches the draws.

POSITIVE_SPECTRUM_RANGE = (0.0, 1.0)  # of positive_pair without a spectrum_range


class Ensemble(NamedTuple):
    check: Callable
    draw: Callable
    keys: tuple  # the config keys besides "name" that the check and the draw read


def sample_ensemble(ens: dict, dim: int, seeds):
    """The kinds, the stack (len(seeds), k, n, n) and the decomposition, or
    None, of the inputs that the ensemble ``ens`` (its dict with its name)
    draws from each of ``seeds`` at ``dim``, once its check has passed."""
    check, draw, _ = ENSEMBLES[ens["name"]]
    return (check(dim, ens), *draw(dim, seeds, ens))


def _kinds(*kinds):
    """The check of an ensemble that reads no config key."""

    def check(dim, ens):
        _check_dim(dim)
        return kinds

    return check


def _per_seed(draw):
    """The stacked draw of a draw (dim, seed, ens) -> the inputs of one seed:
    each seed makes its draws in turn, and the stack holds each seed's
    inputs."""

    def stacked(dim, seeds, ens):
        return np.array([draw(dim, seed, ens) for seed in seeds]), None

    return stacked


def _spectral(lam, z):
    """The stack and the SpectralDecomposition of inputs with the ascending
    spectra lam (T, k, n) in the Haar bases of the Gaussian draws z (T, k, 2,
    n, n) of their Ginibre matrices: the QR, phase and reconstruction run
    once over the stack."""
    dec = SpectralDecomposition(lam, _unitary_from_ginibre(_complex_gaussian(z)))
    return dec.matrix(), dec


def _check_positive_pair(dim, ens):
    _check_dim(dim)
    lo, hi = spectrum_range = ens.get("spectrum_range", POSITIVE_SPECTRUM_RANGE)
    if not (0 <= lo < hi < np.inf):
        raise ParameterError(f"bad positive spectrum range {spectrum_range}")
    return ("pos", "pos")


def _positive_pair(dim, seeds, ens):
    """Per seed two spectra uniform on the range, each followed by its
    basis' draws."""
    lo, hi = ens.get("spectrum_range", POSITIVE_SPECTRUM_RANGE)
    u, z = np.empty((len(seeds), 2, dim)), np.empty((len(seeds), 2, 2, dim, dim))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        for j in range(2):
            rng.random(out=u[i, j])
            rng.standard_normal(out=z[i, j])  # the draws of ginibre(dim, rng)
    lam = lo + (hi - lo) * u  # the bits of rng.uniform(lo, hi, dim)
    lam.sort(axis=-1)
    return _spectral(lam, z)


def _gaussian_pairs(dim, seeds, ens):
    """Two gaussian_hermitian matrices per seed, one array (len(seeds), 2, n, n)."""
    g = sample_ginibre_pairs(dim, seeds)
    return 0.5 * (g + g.conj().swapaxes(-1, -2)), None


def _general_pairs(dim, seeds, ens):
    """Two ginibre matrices per seed, one array (len(seeds), 2, n, n)."""
    return sample_ginibre_pairs(dim, seeds), None


def _commuting_pair(dim, seeds, ens):
    """Per seed one Haar basis' draws, then two Gaussian spectra in it."""
    lam, z = np.empty((len(seeds), 2, dim)), np.empty((len(seeds), 2, 2, dim, dim))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        rng.standard_normal(out=z[i, 0])
        z[i, 1] = z[i, 0]
        rng.standard_normal(out=lam[i])  # the draws of two standard_normal(dim) calls
    lam.sort(axis=-1)
    return _spectral(lam, z)


def _check_fixed_pair(dim, ens):
    _check_dim(dim)
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
    return (kind, kind)


def _fixed_pair(dim, seeds, ens):
    """Per seed two matrices with the given spectrum, each in its own Haar
    basis."""
    lam = np.empty((len(seeds), 2, dim))
    lam[...] = np.sort(np.asarray(ens.get("eigenvalues"), dtype=float))
    z = np.empty((len(seeds), 2, 2, dim, dim))
    for i, seed in enumerate(seeds):
        seed.rng().standard_normal(out=z[i])
    return _spectral(lam, z)


def _hermitian_contraction(count):
    """The draw of ``count`` Gaussian Hermitian matrices and a contraction: a
    Ginibre matrix from the seed's child stream 1, scaled to norm 1."""

    def draw(dim, seed, ens):
        rng = seed.rng()
        herms = [gaussian_hermitian(dim, rng) for _ in range(count)]
        g = ginibre(dim, seed.child(1).rng())
        return herms + [g / op_norm(g)]

    return draw


def _rank_one_steps_args(dim, ens):
    """The magnitudes range and the rank of a rank_one_steps draw at this dim."""
    lo, hi = ens.get("magnitudes_range", [1e-2, 1.0])
    return (lo, hi), ens.get("rank", min(dim, 3))


def _check_rank_one_steps(dim, ens):
    magnitudes_range, r = _rank_one_steps_args(dim, ens)
    if isinstance(r, bool) or not isinstance(r, Integral) or r < 1:
        raise ParameterError(f"rank must be an integer >= 1, got {r!r}")
    _check_steps(dim, r, magnitudes_range)
    return ("herm",) + ("step",) * r


def _rank_one_steps(dim, seed, ens):
    """B and the rank-one steps x_k e_k of a finite-rank telescope."""
    magnitudes_range, r = _rank_one_steps_args(dim, ens)
    b, xs, es = _steps(dim, r, magnitudes_range, seed.rng())
    # (e + e*)/2 is exactly Hermitian, so a verifier's symmetrization keeps
    # each step's bits
    return [b] + [x * (0.5 * (e + e.conj().T)) for x, e in zip(xs, es)]


ENSEMBLES = {
    "gaussian_pair": Ensemble(_kinds("herm", "herm"), _gaussian_pairs, ()),
    "positive_pair": Ensemble(_check_positive_pair, _positive_pair, ("spectrum_range",)),
    "general_pair": Ensemble(_kinds("general", "general"), _general_pairs, ()),
    "commuting_pair": Ensemble(_kinds("herm", "herm"), _commuting_pair, ()),
    "fixed_pair": Ensemble(_check_fixed_pair, _fixed_pair, ("eigenvalues",)),
    "hermitian_contraction": Ensemble(
        _kinds("herm", "contraction"), _per_seed(_hermitian_contraction(1)), ()
    ),
    "hermitian_pair_contraction": Ensemble(
        _kinds("herm", "herm", "contraction"), _per_seed(_hermitian_contraction(2)), ()
    ),
    "rank_one_steps": Ensemble(
        _check_rank_one_steps, _per_seed(_rank_one_steps), ("rank", "magnitudes_range")
    ),
}
