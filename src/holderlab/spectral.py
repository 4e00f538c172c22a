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
# an eigenvalue within ZERO_TOL_COEFF * (1 + max|lambda|) of 0 counts as 0
ZERO_TOL_COEFF = 1e-12
# eigh leaves an exact zero eigenvalue of an n x n matrix within about n eps
# max|lambda| of 0; eigh_stack sets each eigenvalue within ZERO_SNAP * n *
# max|lambda| of 0 to 0, and verify.inverse_apply asks f^{-1} to be finite
# within ZERO_SNAP * n * |lambda| of each eigenvalue
ZERO_SNAP = 8 * np.finfo(float).eps


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
    (a + a*)/2, the per-item ok mask, and a function from the index of an
    item to its DomainError.  An item is ok when its deviation max|a - a*| is
    within ``tol`` times its scale max(1, max|a|).  The symmetrization is
    _symmetrized's, so it stays in the float range."""
    m = np.asarray(a, dtype=complex)
    mh = np.swapaxes(m.conj(), -1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    dev = np.abs(m - mh).max(axis=(-2, -1), initial=0.0)

    def error(idx):
        return DomainError(
            f"matrix is not Hermitian: deviation {dev[idx]:.3e} exceeds {tol:.1e} * "
            f"{scale[idx]:.3e}"
        )

    return _symmetrized(m, mh, scale.max(initial=0.0)), ~(dev > tol * scale), error


def _symmetrized(m, mh, top) -> np.ndarray:
    """(m + mh)/2 for a stack m (..., n, n) and its adjoint mh, where the
    entries of m have moduli at most ``top`` but for rounding: from top
    2^1022 on, where m + mh may leave the float range, m/2 + mh/2, which
    differs only where a half is subnormal."""
    if top < 2.0 ** 1022:
        return 0.5 * (m + mh)
    return 0.5 * m + 0.5 * mh


def as_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate that ``a`` is Hermitian within ``tol`` (relative) and return
    its symmetrization (a + a*)/2."""
    h, ok, error = hermitian_stack(as_square(a), tol)
    if not ok:
        raise error(())
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

    def matrix(self) -> np.ndarray:
        return from_eigen(self.basis, self.eigenvalues)

    def __getitem__(self, idx) -> "SpectralDecomposition":
        """The decomposition of the items ``idx`` of the leading stack axes."""
        return SpectralDecomposition(self.eigenvalues[idx], self.basis[idx])


def eigh_stack(h, tol: float = RECON_TOL, drawn=None):
    """Eigendecomposition of a stack (..., n, n) of exactly Hermitian
    matrices with the reconstruction check: returns the decomposition, its
    reconstruction, the per-item ok mask, and a function from the index of an
    item to its EigensolverError.  Eigenvalues within ZERO_SNAP * n *
    max|lambda| of 0 are made 0, so that a power below 1 of an exact zero is
    0 and not eigh's rounding to that power.  An item is ok when its residual
    max|recon - h| is within ``tol`` * (1 + max|lambda|).  ``drawn``, the
    decomposition a draw built h from (h within the Hermitian check of U
    lambda U*), replaces eigh and the reconstruction, which is then None:
    its residual is the basis U's departure from unitary, max|U*U - I| * (1
    + max|lambda|).  ``numpy.linalg.LinAlgError`` from the eigensolver
    propagates."""
    lam, basis = np.linalg.eigh(h) if drawn is None else (drawn.eigenvalues, drawn.basis)
    mag = np.abs(lam)
    top = mag.max(axis=-1, initial=0.0)
    snap = mag <= ZERO_SNAP * lam.shape[-1] * top[..., None]
    dec, scale = SpectralDecomposition(np.where(snap, 0.0, lam), basis), 1.0 + top
    if drawn is None:
        recon = dec.matrix()
        residual = np.abs(recon - h).max(axis=(-2, -1), initial=0.0)
    else:
        recon, gram = None, np.swapaxes(dec.basis.conj(), -1, -2) @ dec.basis
        residual = scale * np.abs(gram - np.eye(gram.shape[-1])).max(axis=(-2, -1), initial=0.0)

    def error(idx):
        return EigensolverError(
            f"eigendecomposition reconstruction residual {residual[idx]:.3e} exceeds tolerance",
            residual=float(residual[idx]),
        )

    return dec, recon, ~(residual > tol * scale), error


def psd_stack(eigenvalues, tol: float = PSD_TOL) -> np.ndarray:
    """Per-item ok mask of the positive-semidefinite check on a stack (..., n)
    of eigenvalues: none lies below -``tol`` * (1 + max|lambda|)."""
    bound = tol * (1.0 + np.abs(eigenvalues).max(axis=-1, initial=0.0))
    return ~(eigenvalues.min(axis=-1, initial=0.0) < -bound)


def eig_hermitian(a, tol: float = RECON_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a reconstruction check."""
    m = as_hermitian(a)
    try:
        dec, _, ok, error = eigh_stack(m, tol)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed to converge: {exc}") from exc
    if not ok:
        raise error(())
    return dec


def apply_stack(f, dec: SpectralDecomposition):
    """f(M) for a stack (..., n, n) of decompositions of Hermitian M: f is
    applied to the eigenvalues in the eigenbasis.  Returns the stack, the
    per-item ok mask (f is finite at every eigenvalue), and a function from
    the index of an item to its DomainError; an item that is not ok holds
    f(M) with its non-finite values of f replaced by 0."""
    with np.errstate(all="ignore"):  # f: a ScalarFunction-like object or a plain callable
        fv = np.asarray(getattr(f, "eval", f)(dec.eigenvalues), dtype=complex)
    finite = np.isfinite(fv)
    values = np.where(finite, fv, 0.0)
    out = from_eigen(dec.basis, values)
    real = np.abs(fv.imag).max(axis=-1, initial=0.0) == 0.0
    # the entries of U f U* have moduli at most max|f|
    top = np.abs(values).max(initial=0.0)
    hermitian = _symmetrized(out, np.swapaxes(out.conj(), -1, -2), top)
    out = np.where(real[..., None, None], hermitian, out)

    def error(idx):
        bad = dec.eigenvalues[idx][~finite[idx]]
        return DomainError(f"function undefined at eigenvalue(s) {bad[:4]}")

    return out, finite.all(axis=-1), error


def apply_function(f, a, dec: SpectralDecomposition | None = None) -> np.ndarray:
    """f(A) for Hermitian A: apply f to the eigenvalues in the eigenbasis.

    ``dec`` may be supplied to reuse a known decomposition of ``a``.
    """
    if dec is None:
        dec = eig_hermitian(a)
    out, ok, error = apply_stack(f, dec)
    if not ok:
        raise error(())
    return out


def spectral_projection(dec: SpectralDecomposition, lo: float, hi: float) -> np.ndarray:
    """Projection onto eigenvectors with eigenvalue in the half-open [lo, hi)."""
    mask = (dec.eigenvalues >= lo) & (dec.eigenvalues < hi)
    return from_eigen(dec.basis, mask.astype(float))


def abs_matrix(x) -> np.ndarray:
    """|X| = (X* X)^{1/2} for a square matrix X, or for each matrix of a
    stack (..., n, n) of them."""
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    _, s, vh = np.linalg.svd(m)
    out = (np.swapaxes(vh.conj(), -1, -2) * s[..., None, :]) @ vh
    # the entries of V* s V have moduli at most max s
    return _symmetrized(out, np.swapaxes(out.conj(), -1, -2), s.max(initial=0.0))


def cayley(b) -> np.ndarray:
    """Unitary (B - i)(B + i)^{-1} for Hermitian B."""
    m = as_hermitian(b)
    eye = np.eye(m.shape[0], dtype=complex)
    # (B - i) and (B + i)^{-1} commute, so the one-sided solve suffices.
    return np.linalg.solve(m + 1j * eye, m - 1j * eye)
