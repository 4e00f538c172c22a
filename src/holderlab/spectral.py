"""Hermitian matrices, eigendecompositions, and spectral functional calculus.

All matrices are plain complex ndarrays.  A Hermitian input is accepted when
its anti-Hermitian part is below ``HERMITIAN_TOL`` relative to its size and is
then symmetrized, so downstream eigensolvers always see exactly Hermitian data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigensolverError, ShapeError

HERMITIAN_TOL = 1e-10
RECON_TOL = 1e-10
PSD_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_stack(a, tol: float = HERMITIAN_TOL):
    """Hermitian check on a stack (..., n, n): returns the symmetrizations
    (a + a*)/2 and, per item, the ok mask, the deviation max|a - a*| and the
    scale max(1, max|a|); an item is ok when its deviation is within ``tol``
    times its scale."""
    m = np.asarray(a, dtype=complex)
    mh = np.swapaxes(m.conj(), -1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)
    return 0.5 * (m + mh), ~(dev > tol * scale), dev, scale


def _hermitian_error(dev, scale, tol: float = HERMITIAN_TOL) -> DomainError:
    """The error of a matrix that fails the Hermitian check of hermitian_stack."""
    return DomainError(
        f"matrix is not Hermitian: deviation {dev:.3e} exceeds {tol:.1e} * {scale:.3e}"
    )


def as_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian within ``tol`` (relative) and return
    its symmetrization (a + a*)/2."""
    h, ok, dev, scale = hermitian_stack(as_square(a), tol)
    if not ok:
        raise _hermitian_error(dev, scale, tol)
    return h


def op_norm(a) -> float:
    """Operator (spectral) norm."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def from_eigen(basis, values) -> np.ndarray:
    """(basis * values) @ basis*, over a stack (..., n, n) of bases: the
    matrices with these eigenvectors and eigenvalues."""
    return (basis * values[..., None, :]) @ np.swapaxes(basis.conj(), -1, -2)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order and a unitary basis of eigenvectors;
    both may carry leading stack axes."""

    eigenvalues: np.ndarray  # real, ascending
    basis: np.ndarray        # columns are eigenvectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def matrix(self) -> np.ndarray:
        return from_eigen(self.basis, self.eigenvalues)


def eigh_stack(h, tol: float = RECON_TOL):
    """Eigendecomposition of a stack (..., n, n) of exactly Hermitian
    matrices with the reconstruction check: returns the decomposition, its
    reconstruction, and per item the ok mask and the residual max|recon - h|;
    an item is ok when its residual is within ``tol`` * (1 + max|lambda|).
    ``numpy.linalg.LinAlgError`` from the eigensolver propagates."""
    vals, vecs = np.linalg.eigh(h)
    dec = SpectralDecomposition(vals, vecs)
    recon = dec.matrix()
    scale = 1.0 + np.abs(vals).max(axis=-1, initial=0.0)
    residual = np.abs(recon - h).max(axis=(-2, -1), initial=0.0)
    return dec, recon, ~(residual > tol * scale), residual


def psd_stack(eigenvalues, tol: float = PSD_TOL) -> np.ndarray:
    """Per-item ok mask of the positive-semidefinite check on a stack (..., n)
    of eigenvalues: none lies below -``tol`` * (1 + max|lambda|)."""
    bound = tol * (1.0 + np.abs(eigenvalues).max(axis=-1, initial=0.0))
    return ~(eigenvalues.min(axis=-1, initial=0.0) < -bound)


def _reconstruction_error(residual) -> EigensolverError:
    """The error of a matrix that fails the reconstruction check of eigh_stack."""
    return EigensolverError(
        f"eigendecomposition reconstruction residual {residual:.3e} exceeds tolerance",
        residual=float(residual),
    )


def eig_hermitian(a, tol: float = RECON_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a reconstruction check."""
    m = as_hermitian(a)
    try:
        dec, _, ok, residual = eigh_stack(m, tol)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed to converge: {exc}") from exc
    if not ok:
        raise _reconstruction_error(residual)
    return dec


def _as_eval(f):
    """Accept a ScalarFunction-like object (with .eval) or a plain callable."""
    return getattr(f, "eval", f)


def apply_function(f, a, dec: SpectralDecomposition | None = None) -> np.ndarray:
    """f(A) for Hermitian A: apply f to the eigenvalues in the eigenbasis.

    ``dec`` may be supplied to reuse a known decomposition of ``a``.
    """
    if dec is None:
        dec = eig_hermitian(a)
    with np.errstate(all="ignore"):
        fv = np.asarray(_as_eval(f)(dec.eigenvalues), dtype=complex)
    if not np.all(np.isfinite(fv)):
        bad = dec.eigenvalues[~np.isfinite(fv)]
        raise DomainError(f"function undefined at eigenvalue(s) {bad[:4]}")
    out = from_eigen(dec.basis, fv)
    if np.abs(fv.imag).max(initial=0.0) == 0.0:
        out = 0.5 * (out + out.conj().T)
    return out


def spectral_projection(dec: SpectralDecomposition, lo: float, hi: float) -> np.ndarray:
    """Projection onto eigenvectors with eigenvalue in the half-open [lo, hi)."""
    mask = (dec.eigenvalues >= lo) & (dec.eigenvalues < hi)
    return from_eigen(dec.basis, mask.astype(float))


def abs_matrix(x) -> np.ndarray:
    """|X| = (X* X)^{1/2} for a square matrix X."""
    m = as_square(x)
    u, s, vh = np.linalg.svd(m)
    out = (vh.conj().T * s) @ vh
    return 0.5 * (out + out.conj().T)


def cayley(b) -> np.ndarray:
    """Unitary (B - i)(B + i)^{-1} for Hermitian B."""
    m = as_hermitian(b)
    eye = np.eye(m.shape[0], dtype=complex)
    # (B - i) and (B + i)^{-1} commute, so the one-sided solve suffices.
    return np.linalg.solve(m + 1j * eye, m - 1j * eye)


def commutator(x, b) -> np.ndarray:
    return x @ b - b @ x


def signed_power_matrix(a, theta: float, dec: SpectralDecomposition | None = None) -> np.ndarray:
    """sgn(A)|A|^theta for Hermitian A."""
    if dec is None:
        dec = eig_hermitian(a)
    fv = np.sign(dec.eigenvalues) * np.abs(dec.eigenvalues) ** theta
    return from_eigen(dec.basis, fv)
