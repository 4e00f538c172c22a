import numpy as np
import pytest

import holderlab as hl
from holderlab.errors import DomainError, ShapeError
from holderlab.functions import polynomial, power
from holderlab.spectral import abs_matrix, cayley

RNG = np.random.default_rng(20240810)


def random_hermitian(n, rng=RNG):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def test_eig_diagonal_is_sorted_permutation():
    dec = hl.eig_hermitian(np.diag([2.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0])
    # basis columns are permuted standard vectors
    assert np.allclose(np.abs(dec.basis), [[0, 1], [1, 0]])


def test_eig_identity():
    dec = hl.eig_hermitian(np.eye(3))
    assert np.allclose(dec.eigenvalues, np.ones(3))


def test_eig_reconstruction_random():
    for _ in range(20):
        a = random_hermitian(6)
        dec = hl.eig_hermitian(a)
        scale = 1.0 + np.abs(dec.eigenvalues).max()
        assert np.abs(dec.matrix() - a).max() <= 1e-12 * scale
        assert np.abs(dec.basis.conj().T @ dec.basis - np.eye(6)).max() <= 1e-12


def test_an_exact_zero_eigenvalue_is_zero():
    # eigh leaves an exact zero at about +-1e-16, whose power 0.25 is 1e-4;
    # an eigenvalue 1e-13 of 1 lies above ZERO_SNAP * n and is kept
    from holderlab.ensembles import haar_unitary
    from holderlab.spectral import ZERO_SNAP, from_eigen

    u = haar_unitary(4, np.random.default_rng(3))
    raw = np.linalg.eigvalsh(from_eigen(u, np.array([0.0, 0.0, 1.0, 1.0])))
    assert np.abs(raw[:2]).max() > 0.0  # the rounding the snap removes
    for spectrum in ([0.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 1e-13, 1.0]):
        lam = hl.eig_hermitian(from_eigen(u, np.array(spectrum))).eigenvalues
        assert (lam == 0.0).sum() == spectrum.count(0.0)
        assert np.allclose(lam, spectrum, rtol=0.0, atol=4 * ZERO_SNAP)


def test_rejects_non_hermitian():
    with pytest.raises(DomainError):
        hl.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_function_diagonal():
    sq = hl.apply_function(lambda t: t**2, np.diag([1.0, 2.0]))
    assert np.allclose(sq, np.diag([1.0, 4.0]))
    rt = hl.apply_function(lambda t: np.abs(t) ** 0.5, np.diag([4.0, 9.0]))
    assert np.allclose(rt, np.diag([2.0, 3.0]))


def _cheb_matrix(func, a, lo, hi, deg=90):
    """Chebyshev interpolant of func on [lo, hi] applied to a Hermitian
    matrix via the Clenshaw recurrence; no eigensolver involved."""
    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(func, deg, domain=[lo, hi])
    c = cheb.coef
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    t = (2.0 * a - (hi + lo) * eye) / (hi - lo)  # spectrum into [-1, 1]
    b1 = np.zeros_like(eye)
    b2 = np.zeros_like(eye)
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] * eye + 2.0 * t @ b1 - b2, b1
    return c[0] * eye + t @ b1 - b2


def test_apply_function_matches_chebyshev_oracle():
    # positive definite by construction so log1p is analytic on the whole
    # spectral interval and the polynomial oracle converges geometrically
    rng = np.random.default_rng(7)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = g @ g.conj().T / 5.0 + 0.5 * np.eye(5)
    radius = float(np.abs(a).sum(axis=1).max())  # Gershgorin upper bound
    f = lambda t: np.log1p(np.abs(t))
    got = hl.apply_function(f, a)
    want = _cheb_matrix(f, a, 0.0, radius)
    assert np.abs(got - want).max() <= 1e-8


def test_apply_function_undefined_eigenvalue():
    with pytest.raises(DomainError):
        hl.apply_function(lambda t: 1.0 / t, np.diag([0.0, 1.0]))


def test_functional_calculus_homomorphism():
    rng = np.random.default_rng(8)
    a = random_hermitian(5, rng)
    f = polynomial([0.0, 1.0, 2.0])
    g = polynomial([1.0, -1.0, 0.0, 0.5])
    prod_coeffs = np.polynomial.polynomial.polymul([0.0, 1.0, 2.0], [1.0, -1.0, 0.0, 0.5])
    fg = polynomial(prod_coeffs)
    lhs = hl.apply_function(fg, a)
    rhs = hl.apply_function(f, a) @ hl.apply_function(g, a)
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_apply_function_commutes_with_argument():
    rng = np.random.default_rng(77)
    a = random_hermitian(6, rng)
    fa = hl.apply_function(power(0.5), a)
    assert np.abs(fa @ a - a @ fa).max() <= 1e-10 * (1.0 + np.abs(a).max() ** 2)
    assert np.abs(fa - fa.conj().T).max() == 0.0  # symmetrized real-valued output


def test_unitary_conjugation_covariance():
    rng = np.random.default_rng(9)
    a = random_hermitian(5, rng)
    u = hl.haar_unitary(5, rng)
    f = power(0.5)
    lhs = hl.apply_function(f, u.conj().T @ a @ u)
    rhs = u.conj().T @ hl.apply_function(f, a) @ u
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


def test_spectral_projection_examples():
    dec = hl.eig_hermitian(np.diag([-1.0, 0.0, 2.0]))
    assert np.allclose(hl.spectral_projection(dec, 0.5, np.inf), np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(hl.spectral_projection(dec, -np.inf, np.inf), np.eye(3))
    dec2 = hl.eig_hermitian(np.diag([0.3, 0.6]))
    assert np.allclose(hl.spectral_projection(dec2, 0.5, 1.0), np.diag([0.0, 1.0]))


def test_spectral_projections_partition_and_orthogonality():
    rng = np.random.default_rng(10)
    a = random_hermitian(6, rng)
    dec = hl.eig_hermitian(a)
    cuts = [-np.inf, -1.0, 0.0, 0.5, np.inf]
    projs = [hl.spectral_projection(dec, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.abs(sum(projs) - np.eye(6)).max() <= 1e-10
    for i in range(len(projs)):
        for j in range(i):
            assert np.abs(projs[i] @ projs[j]).max() <= 1e-10


def test_abs_matrix():
    assert np.allclose(abs_matrix(np.diag([-3.0, 4.0])), np.diag([3.0, 4.0]))
    rng = np.random.default_rng(11)
    u = hl.haar_unitary(4, rng)
    assert np.abs(abs_matrix(u) - np.eye(4)).max() <= 1e-12
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    vals = np.sort(np.linalg.eigvalsh(abs_matrix(x)))[::-1]
    sv = np.linalg.svd(x, compute_uv=False)
    assert np.abs(vals - sv).max() <= 1e-10
    for p in (0.5, 1.0, 2.0, np.inf):
        got = hl.norm_of_profile(hl.singular_values(abs_matrix(x)), hl.Schatten(p))
        assert got == pytest.approx(hl.norm_of_profile(sv, hl.Schatten(p)), rel=1e-12)


def test_abs_matrix_rejects_nonsquare():
    with pytest.raises(ShapeError):
        abs_matrix(np.ones((2, 3)))


def test_cayley_scalars():
    assert np.allclose(cayley(np.zeros((1, 1))), [[-1.0]])
    assert np.allclose(cayley(np.eye(1)), [[(1 - 1j) / (1 + 1j)]])
    assert np.allclose(cayley(np.eye(1)), [[-1j]])


def test_cayley_unitary_and_bound():
    rng = np.random.default_rng(12)
    b = random_hermitian(5, rng)
    b = b / hl.op_norm(b)  # contraction
    u = cayley(b)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12
    inv = np.linalg.inv(np.eye(5) - u)
    assert hl.op_norm(inv) <= 1.0 / np.sqrt(2.0) + 1e-10


def test_cayley_inverse_roundtrip():
    # B = 2i (1 - U)^{-1} - i recovers B from its Cayley transform U
    rng = np.random.default_rng(13)
    b = random_hermitian(4, rng)
    eye = np.eye(4)
    back = 2j * np.linalg.inv(eye - cayley(b)) - 1j * eye
    assert np.abs(back - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
