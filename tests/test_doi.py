import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holderlab as hl
from holderlab import doi
from holderlab import functions as F
from holderlab.ensembles import (
    SeedState,
    gaussian_hermitian,
    ginibre,
    sample_schur_instances,
)
from holderlab.errors import CapabilityError, DomainError, ParameterError, SingularityError

from conftest import fixed_spectrum, one_record


def decs_for(a, b):
    return hl.eig_hermitian(a), hl.eig_hermitian(b)


def _ratio(sym, da, db, v, p):
    """||T_sym(V)||_p / ||V||_p for one instance."""
    return hl.norm(doi.schur_apply(sym, da, db, v), hl.Schatten(p)) / hl.norm(v, hl.Schatten(p))


def test_schur_apply_constant_symbol_is_identity():
    rng = np.random.default_rng(0)
    a, b = gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)
    v = ginibre(4, rng)
    one = doi.BivariateSymbol(
        lambda s, t: np.ones(np.broadcast(s, t).shape), "one"
    )
    da, db = decs_for(a, b)
    assert np.abs(doi.schur_apply(one, da, db, v) - v).max() <= 1e-12


def _one_variable_symbol(g, lambda_range=(-1.0, 1.0)):
    """The symbol (s, t) -> g(s), which acts by left multiplication by g(A)."""

    def ev(s, t):
        s, t = np.broadcast_arrays(np.asarray(s), np.asarray(t))
        return np.asarray(g(s)) * np.ones_like(t, dtype=float)

    return doi.BivariateSymbol(ev, "g(lambda)", lambda_range=lambda_range)


def test_schur_apply_one_variable_symbol_left_multiplies():
    rng = np.random.default_rng(1)
    a, b = gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)
    v = ginibre(4, rng)
    sym = _one_variable_symbol(lambda s: np.tanh(s))
    da, db = decs_for(a, b)
    got = doi.schur_apply(sym, da, db, v)
    want = hl.apply_function(lambda t: np.tanh(t), a, da) @ v
    assert np.abs(got - want).max() <= 1e-10


def test_schur_apply_divided_difference_hand_example():
    # f(t) = t^2 has divided difference s + t
    f = F.polynomial([0.0, 0.0, 1.0])
    a, b = np.diag([1.0, 2.0]), np.diag([3.0, 5.0])
    da, db = decs_for(a, b)
    v = np.ones((2, 2), dtype=complex)
    got = doi.schur_apply(doi.dd_symbol(f), da, db, v)
    assert np.allclose(got, np.array([[4.0, 6.0], [5.0, 7.0]]))


def test_schur_apply_linearity_and_l2_bound():
    rng = np.random.default_rng(2)
    a, b = gaussian_hermitian(5, rng), gaussian_hermitian(5, rng)
    da, db = decs_for(a, b)
    sym = doi.dd_symbol(F.gauss_bump())
    v, w = ginibre(5, rng), ginibre(5, rng)
    lhs = doi.schur_apply(sym, da, db, 2.0 * v + 3.0 * w)
    rhs = 2.0 * doi.schur_apply(sym, da, db, v) + 3.0 * doi.schur_apply(sym, da, db, w)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())
    m = doi.symbol_matrix(sym, da.eigenvalues, db.eigenvalues)
    assert hl.norm(doi.schur_apply(sym, da, db, v), hl.Schatten(2)) <= np.abs(
        m
    ).max() * hl.norm(v, hl.Schatten(2)) * (1.0 + 1e-12)


def test_schur_apply_singularity_error():
    f = F.power(0.5)
    a = np.diag([0.0, 1.0])
    da, db = decs_for(a, a)
    with pytest.raises(SingularityError):
        doi.schur_apply(doi.dd_symbol(f), da, db, np.eye(2, dtype=complex))


def test_lipschitz_identity_trivial_and_polynomial():
    rng = np.random.default_rng(3)
    a = gaussian_hermitian(4, rng)
    ident = np.eye(4, dtype=complex)
    f = F.polynomial([0.0, 1.0, 0.5, -0.25])
    assert hl.doi_lipschitz_identity(f, a, a, ident, ident) <= 1e-12
    b = gaussian_hermitian(4, rng)
    assert hl.doi_lipschitz_identity(f, a, b, ident, ident) <= 1e-10


def test_lipschitz_identity_dyadic_projections():
    rng = np.random.default_rng(4)
    f = F.power(0.5)
    a, la, _ = fixed_spectrum(rng.uniform(0.25, 2.0, 5), rng)
    b, lb, _ = fixed_spectrum(rng.uniform(0.25, 2.0, 5), rng)
    da, db = decs_for(a, b)
    p = hl.spectral_projection(da, 0.5, 1.0)
    q = hl.spectral_projection(db, 0.25, 0.5)
    assert hl.doi_lipschitz_identity(f, a, b, p, q) <= 1e-8


def test_decomposition_bounds():
    single = doi.MultiplierDecomposition(
        phi_sup=np.array([1.0]),
        psi_sup=np.array([1.0]),
        psi_tail_psum=lambda p: 0.0,
        prefactor=1.0,
        description="single",
    )
    assert doi.decomposition_bound(single, 1.0) == pytest.approx(1.0)
    assert doi.decomposition_bound(doi.alpha_decomposition(), 1.0) == pytest.approx(4.0)
    assert doi.decomposition_bound(doi.beta_decomposition(), 1.0) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        doi.decomposition_bound(single, 2.0)


def test_decomposition_bound_general_p_matches_geometric_series():
    # prefactor * sup * (sum 2^{-np})^{1/p} with the analytic tail included
    for p in (0.5, 1.0):
        want_alpha = 2.0 * (1.0 / (1.0 - 2.0 ** (-p))) ** (1.0 / p)
        assert doi.decomposition_bound(doi.alpha_decomposition(), p) == pytest.approx(
            want_alpha, rel=1e-12
        )


def test_empirical_lower_constant_symbol_is_one():
    one = doi.BivariateSymbol(lambda s, t: np.ones(np.broadcast(s, t).shape), "one")
    res = doi.empirical_mp_lower(one, 1.0, 4, 10, SeedState(5))
    assert res.value == pytest.approx(1.0, abs=1e-12) and res.resampled == 0


def test_empirical_lower_one_variable_approaches_sup():
    sym = _one_variable_symbol(lambda s: np.sin(s), lambda_range=(-6.0, 6.0))
    res = doi.empirical_mp_lower(sym, 1.0, 6, 200, SeedState(6))
    assert res.value <= 1.0 + 1e-10
    assert res.value >= 0.9


def test_empirical_lower_monotone_in_trials():
    sym = doi.alpha_symbol()
    v50 = doi.empirical_mp_lower(sym, 1.0, 5, 50, SeedState(7)).value
    v200 = doi.empirical_mp_lower(sym, 1.0, 5, 200, SeedState(7)).value
    assert v200 >= v50
    # determinism
    again = doi.empirical_mp_lower(sym, 1.0, 5, 200, SeedState(7)).value
    assert again == v200


def test_alpha_beta_lower_below_upper():
    for sym, dec in [
        (doi.alpha_symbol(), doi.alpha_decomposition()),
        (doi.beta_symbol(), doi.beta_decomposition()),
    ]:
        lower = doi.empirical_mp_lower(sym, 1.0, 6, 300, SeedState(8)).value
        assert lower <= doi.decomposition_bound(dec, 1.0) * (1.0 + 1e-8)


def test_p_subadditive_combination_bounds_symbol_sum():
    a, b = doi.alpha_symbol(), doi.beta_symbol()

    def ev(s, t):
        return np.asarray(a.eval(s, t)) + np.asarray(b.eval(s, t))

    combo = doi.BivariateSymbol(ev, "alpha+beta", lambda_range=(0.5, 1.0), mu_range=(1e-6, 8.0))
    p = 1.0
    ua = doi.decomposition_bound(doi.alpha_decomposition(), p)
    ub = doi.decomposition_bound(doi.beta_decomposition(), p)
    lower = doi.empirical_mp_lower(combo, p, 6, 300, SeedState(9)).value
    assert lower <= (ua**p + ub**p) ** (1.0 / p) * (1.0 + 1e-8)


def test_multiplicativity_floor():
    # alpha times a one-variable symbol of sup norm 1
    alpha = doi.alpha_symbol()
    prod = doi.BivariateSymbol(
        lambda s, t: alpha.eval(s, t) * np.clip(np.real(s), -1.0, 1.0),
        "alpha*clip",
        lambda_range=alpha.lambda_range,
        mu_range=alpha.mu_range,
    )
    lower = doi.empirical_mp_lower(prod, 1.0, 6, 300, SeedState(10)).value
    upper_alpha = doi.decomposition_bound(doi.alpha_decomposition(), 1.0)
    assert lower <= upper_alpha * 1.0 * (1.0 + 1e-8)


def test_dilation_covariance_term_by_term():
    # with r a power of two the rescaled evaluation points are exact floats
    f = F.power(0.5)
    sym = doi.dd_symbol(f)
    r = 2.0
    rng = np.random.default_rng(11)
    lam = np.sort(rng.uniform(0.25, 2.0, 5))
    mu = np.sort(rng.uniform(0.25, 2.0, 5))
    u1 = hl.haar_unitary(5, rng)
    u2 = hl.haar_unitary(5, rng)
    v = ginibre(5, rng)
    da = hl.SpectralDecomposition(lam, u1)
    db = hl.SpectralDecomposition(mu, u2)
    da_r = hl.SpectralDecomposition(r * lam, u1)
    db_r = hl.SpectralDecomposition(r * mu, u2)
    for p in (0.5, 1.0):
        r1 = _ratio(sym, da, db, v, p)
        dilated = doi.BivariateSymbol(lambda s, t: sym.eval(s / r, t / r), "dilated")
        r2 = _ratio(dilated, da_r, db_r, v, p)
        assert r1 == pytest.approx(r2, rel=1e-13)


def test_fourier_constant_series_oracle():
    # bracket zeta(pb) by a partial sum plus integral tails
    for p, b in [(1.0, 2), (0.5, 3)]:
        s = p * b
        n_cut = 200_000
        partial = np.sum(np.arange(1, n_cut + 1, dtype=float) ** (-s))
        lo = partial + (n_cut + 1) ** (1 - s) / (s - 1)
        hi = partial + n_cut ** (1 - s) / (s - 1)
        got = doi.fourier_coefficient_constant(p, b)
        assert (2.0 * lo) ** (1.0 / p) <= got <= (2.0 * hi) ** (1.0 / p) * (1 + 1e-12)
    assert doi.fourier_coefficient_constant(1.0, 2) == pytest.approx(
        math.pi**2 / 3.0, rel=1e-12
    )


def test_zeta_upper_bound_closed_forms():
    for s, exact in [(2.0, math.pi**2 / 6.0), (4.0, math.pi**4 / 90.0), (6.0, math.pi**6 / 945.0)]:
        got = doi._zeta_upper(s)
        assert exact <= got <= exact * (1.0 + 2e-15)


def test_cli_imports_without_scipy():
    code = "import sys, holderlab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hl.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_fourier_constant_requires_b_above_1_over_p():
    with pytest.raises(ParameterError):
        doi.fourier_coefficient_constant(1.0, 1)
    with pytest.raises(ParameterError):
        doi.fourier_coefficient_constant(0.5, 2)


def _grid_block(x):
    """The rows and columns of every point of the grid x * x, as one block."""
    return np.indices((x.size, x.size)).reshape(2, -1)


def _const_partials(orders, x):
    """The partials of the symbol 1."""
    rows, cols = _grid_block(x)
    yield rows, cols, [np.full(rows.size, float((m, n) == (0, 0))) for m, n in orders]


def test_fourier_bound_constant_symbol():
    got = doi.fourier_sobolev_bound(_const_partials, 1.0, 2, grid_n=64)
    assert got.upper >= 1.0 - 1e-12
    assert got.quadrature_error <= 1e-12


def test_fourier_bound_exponential_symbol_dominates_empirical():
    def ev(x, y):
        x, y = np.broadcast_arrays(x, y)
        return np.exp(1j * x) * np.ones_like(np.real(y))

    def partial(m, n, x, y):
        if m > 0:
            return np.zeros(np.broadcast(x, y).shape, dtype=complex)
        x, y = np.broadcast_arrays(x, y)
        return (1j) ** n * np.exp(1j * x) * np.ones_like(np.real(y))

    def partials(orders, x):
        rows, cols = _grid_block(x)
        yield rows, cols, [partial(m, n, x[rows], x[cols]) for m, n in orders]

    bound = doi.fourier_sobolev_bound(partials, 1.0, 2, grid_n=64).upper
    biv = doi.BivariateSymbol(ev, "e^ix", lambda_range=(-3.0, 3.0), mu_range=(-3.0, 3.0))
    lower = doi.empirical_mp_lower(biv, 1.0, 5, 100, SeedState(12)).value
    assert lower <= bound * (1.0 + 1e-8)
    assert lower >= 0.9  # the sup norm of the symbol is 1


def test_dyadic_symbols_support_and_linear_value():
    f = F.linear()
    g0, h0 = doi.dyadic_symbols(f, 0)
    assert g0.eval(np.array([0.3]), np.array([0.5]))[0] == 0.0  # off band
    assert g0.eval(np.array([0.75]), np.array([0.5]))[0] == pytest.approx(1.0)
    assert h0.eval(np.array([0.5]), np.array([0.75]))[0] == pytest.approx(1.0)
    assert h0.eval(np.array([-0.1]), np.array([0.75]))[0] == 0.0


def test_dyadic_scaling_law():
    theta = 0.5
    f = F.power(theta)
    vals = []
    for k in range(-3, 4):
        g, _ = doi.dyadic_symbols(f, k)
        lower = doi.empirical_mp_lower(g, 1.0, 5, 100, SeedState(13)).value
        vals.append(2.0 ** (k * (theta - 1.0)) * lower)
    assert max(vals) / min(vals) <= 10.0


def test_dyadic_upper_dominates_lower():
    theta = 0.5
    f = F.power(theta)
    up0 = doi.band_upper_bound(f, theta, 1.0, grid_n=32)
    for k in (-2, 0, 2):
        g, _ = doi.dyadic_symbols(f, k)
        lower = doi.empirical_mp_lower(g, 1.0, 5, 100, SeedState(14)).value
        upper = doi.dyadic_upper_bound(f, k, theta, 1.0, grid_n=32)
        assert lower <= upper * (1.0 + 1e-8)
        assert upper == pytest.approx(2.0 ** (k * (1 - theta)) * up0, rel=1e-12)


def test_b0_b1_bounds():
    theta, a, p = 0.5, 1.0, 1.0
    upper = doi.b0_upper_bound(theta, a, p, grid_n=32)
    for sym in (doi.b0_symbol(theta, a), doi.b1_symbol(theta, a)):
        lower = doi.empirical_mp_lower(sym, p, 5, 100, SeedState(15)).value
        assert lower <= upper * (1.0 + 1e-8)
    # the bound scales like a^{theta-1}
    upper2 = doi.b0_upper_bound(theta, 2.0, p, grid_n=32)
    assert upper2 == pytest.approx(upper * 2.0 ** (theta - 1.0), rel=1e-12)


def test_band_terms_match_projected_differences():
    # per-band identity: T_{g_k}(p_k (A-B) Q_k) = p_k (f(A)-f(B)) Q_k and the
    # mirrored statement for h_k, checked term by term
    rng = np.random.default_rng(40)
    f = F.power(0.5)
    a, _, _ = fixed_spectrum(rng.uniform(2.0**-3, 1.9, 6), rng)
    b, _, _ = fixed_spectrum(rng.uniform(2.0**-3, 1.9, 6), rng)
    da, db = decs_for(a, b)
    fa, fb = hl.apply_function(f, a, da), hl.apply_function(f, b, db)
    diff = a - b
    for k in range(-1, 4):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        g_k, h_k = doi.dyadic_symbols(f, k)
        p_k = hl.spectral_projection(da, lo, hi)
        q_k = hl.spectral_projection(db, lo, hi)
        big_q = hl.spectral_projection(db, np.nextafter(0.0, 1.0), hi)
        big_p_next = hl.spectral_projection(da, np.nextafter(0.0, 1.0), lo)
        v_k = p_k @ diff @ big_q
        w_k = big_p_next @ diff @ q_k
        lhs_g = doi.schur_apply(g_k, da, db, v_k)
        rhs_g = p_k @ (fa - fb) @ big_q
        assert np.abs(lhs_g - rhs_g).max() <= 1e-12 * (1.0 + np.abs(rhs_g).max())
        lhs_h = doi.schur_apply(h_k, da, db, w_k)
        rhs_h = big_p_next @ (fa - fb) @ q_k
        assert np.abs(lhs_h - rhs_h).max() <= 1e-12 * (1.0 + np.abs(rhs_h).max())


def test_unitary_phase_symbol_preserves_norms():
    # a(s, t) = e^{i(s-t)} acts as V -> e^{iA} V e^{-iB}: an exact isometry
    # for every Schatten norm, so every sampled ratio equals 1
    def ev(s, t):
        return np.exp(1j * (np.asarray(s) - np.asarray(t)))

    sym = doi.BivariateSymbol(ev, "phase", lambda_range=(-2.0, 2.0), mu_range=(-2.0, 2.0))
    rng = np.random.default_rng(41)
    for p in (0.5, 1.0, 2.0):
        for _ in range(10):
            a, b = gaussian_hermitian(5, rng), gaussian_hermitian(5, rng)
            da, db = decs_for(a, b)
            v = ginibre(5, rng)
            assert _ratio(sym, da, db, v, p) == pytest.approx(1.0, rel=1e-10)
    res = doi.empirical_mp_lower(sym, 1.0, 5, 50, SeedState(42))
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_representation_reconstruct_single_band():
    rng = np.random.default_rng(16)
    a, _, _ = fixed_spectrum(rng.uniform(0.5, 0.99, 5), rng)
    b, _, _ = fixed_spectrum(rng.uniform(0.5, 0.99, 5), rng)
    res = hl.representation_reconstruct(F.power(0.5), a, b, (0, 0))
    assert res.covered and res.residual <= 1e-10


def test_representation_reconstruct_trivial_and_wide():
    rng = np.random.default_rng(17)
    a, _, _ = fixed_spectrum(rng.uniform(2.0**-4, 1.99, 6), rng)
    same = hl.representation_reconstruct(F.power(0.5), a, a, (-1, 4))
    assert same.residual <= 1e-12
    b, _, _ = fixed_spectrum(rng.uniform(2.0**-4, 1.99, 6), rng)
    res = hl.representation_reconstruct(F.log1p_abs(), a, b, (-1, 4))
    assert res.covered and res.residual <= 1e-8


def _criterion_04_instance(i):
    """Instance i of acceptance criterion 4: f and the pair (A, B)."""
    rng = SeedState(104, (i,)).rng()
    dim, f = 2 + i % 7, (F.power(0.5), F.log1p_abs())[i % 2]
    a, b = (
        fixed_spectrum(rng.uniform(2.0**-4, 1.99, dim) * rng.choice([-1.0, 1.0], dim), rng)[0]
        for _ in range(2)
    )
    return f, a, b


def test_band_reconstruction_is_built_from_the_dyadic_symbols(monkeypatch):
    # doubling every g_k of dyadic_symbols must show in the residual: the
    # bands are the symbols whose multiplier norms mpnorm bounds, not copies
    instances = [_criterion_04_instance(i) for i in range(14)]

    def worst():
        return max(
            hl.representation_reconstruct(f, a, b, (-1, 4)).residual for f, a, b in instances
        )

    assert worst() <= 1e-8
    dyadic_symbols = doi.dyadic_symbols

    def doubled_g(f, k):
        g, h = dyadic_symbols(f, k)
        return dataclasses.replace(g, eval=lambda s, t: 2.0 * g.eval(s, t)), h

    monkeypatch.setattr(doi, "dyadic_symbols", doubled_g)
    assert worst() > 1e-8


def test_region_symbols_never_evaluate_f_off_their_region():
    # power:0.5 has no divided difference at (0, 0): g_k and h_k hand f the
    # points of their region alone, and are 0 elsewhere
    seen = []

    def spy(fn):
        def wrapped(*args):
            seen.append(np.array(args[-1], dtype=float))
            return fn(*args)

        return wrapped

    f = F.power(0.5)
    f = dataclasses.replace(f, eval=spy(f.eval), deriv=spy(f.deriv))
    points = np.array([-1.0, -0.5, -0.0, 0.0, 0.3, 0.5, 0.75, 1.0, 1.5])
    s, t = np.broadcast_arrays(points[:, None], points[None, :])
    for k in (-1, 0, 1):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        g, h = doi.dyadic_symbols(f, k)
        for sym, band, other in ((g, s, t), (h, t, s)):
            seen.clear()
            vals = sym.eval(s, t)
            region = (band >= lo) & (band < hi) & (other > 0.0)
            assert np.all(vals[~region] == 0.0)
            want = F.divided_difference_grid(F.power(0.5), s[region], t[region])
            assert region.any() and np.all(vals[region] == want)
            assert seen and all(np.all(x > 0.0) for x in seen)


def test_representation_reconstruct_reports_coverage_failure():
    rng = np.random.default_rng(18)
    a, _, _ = fixed_spectrum(rng.uniform(0.5, 4.0, 5), rng)  # exceeds 2^0
    b, _, _ = fixed_spectrum(rng.uniform(0.5, 4.0, 5), rng)
    res = hl.representation_reconstruct(F.power(0.5), a, b, (0, 3))
    assert not res.covered


def _alt(x, z):
    """The alt record of (X, Z) at theta 0.5, p 1: its constant is the margin
    of the submajorization, and it is flagged when that fails."""
    return one_record("alt", None, 0.5, 1.0, None, x, z)


def test_alt_check_trivial_cases():
    ident = np.eye(3)
    rec = _alt(ident, ident)
    assert not rec.flagged and rec.holds_with_constant == pytest.approx(0.0, abs=1e-14)
    x = np.diag([0.5, 2.0, 3.0])
    z = np.diag([1.0, 0.25, 2.0])
    rec2 = _alt(x, z)
    assert not rec2.flagged and rec2.holds_with_constant == pytest.approx(0.0, abs=1e-12)


def test_alt_check_random_positive_pairs():
    for i in range(100):
        rng = SeedState(19, (i,)).rng()
        g1 = ginibre(6, rng)
        g2 = ginibre(6, rng)
        rec = _alt(g1 @ g1.conj().T, g2 @ g2.conj().T)
        assert not rec.flagged


def test_alt_check_rejects_negative():
    with pytest.raises(DomainError, match="X is not positive semidefinite"):
        _alt(np.diag([1.0, -0.5]), np.eye(2))


def test_degenerate_grid_and_dim_are_rejected():
    partials = doi.localized_inverse_sum_periodic(
        doi.SmoothBump(0.75, 1.0, 2.0, 2.25), doi.SmoothBump(-0.25, 0.0, 2.0, 2.25)
    )
    for grid_n in (-4, 0, 1):
        with pytest.raises(ParameterError, match="grid_n"):
            doi.fourier_sobolev_bound(partials, 1.0, 2, grid_n=grid_n)
    for dim in (-1, 0):
        with pytest.raises(ParameterError, match="dim"):
            doi.empirical_mp_lower(doi.alpha_symbol(), 1.0, dim, 5, SeedState(1))


# --- the Fourier route against the per-partial reference ---------------------------
#
# Test-local copies of the evaluation that one derivative table per node
# replaced: every partial recomputes each divided-difference part it needs,
# every part calls f.deriv at each quadrature node, and the Richardson
# estimate evaluates the grid_n and 2*grid_n grids separately.  The route
# must equal them bit for bit.  Its bound on grid_n also equals, bit for bit,
# the reference's bound on the 2*grid_n grid alone (without Richardson).


def _ref_l2_mean(vals):
    return float(math.sqrt(np.mean(np.abs(vals) ** 2)))


def _dd_parts(b):
    """The divided-difference parts the route takes for the orders (0, 0),
    (0, 1), (b, 0), (b, 1) and their transposes."""
    sums = {(0, 0), (0, 1), (1, 0), (b, 0), (0, b), (b, 1), (1, b)}
    return {(i, j) for m, n in sums for i in range(n + 1) for j in range(m + 1)}


def _support(bump, grid):
    x = doi._torus_grid(grid)
    return x[(x > bump.lo) & (x < bump.hi)]


def _ref_dd_partial(f, bump, rule=None):
    """``rule(y)`` is the Gauss-Legendre order of the row y of a pair x >= y;
    by default the route's, probed on the support of the 16-point grid, whose
    every other point is the 8-point grid."""
    if rule is None:
        support = _support(bump, 16)
        orders = doi._dd_orders(f, _dd_parts(bump.order - 2), support)

        def rule(y):
            return orders[np.searchsorted(support, y)]

    def dd_part(i, j, x, y, mask):
        xm, ym = x[mask], y[mask]
        n = rule(np.minimum(xm, ym))
        out = np.zeros(xm.shape, dtype=float)
        for order in np.unique(n):
            at = n == order
            acc = np.zeros(int(at.sum()), dtype=float)
            for t, w in zip(*doi._gauss_legendre_01(int(order))):
                acc += w * t ** i * (1.0 - t) ** j * f.deriv(
                    1 + i + j, t * xm[at] + (1.0 - t) * ym[at]
                )
            out[at] = acc
        return out

    def leibniz(m, n, x, y):
        mask = (x > bump.lo) & (x < bump.hi) & (y > bump.lo) & (y < bump.hi)
        out = np.zeros(x.shape, dtype=float)
        if not np.any(mask):
            return out
        acc = np.zeros(int(mask.sum()), dtype=float)
        for i in range(n + 1):
            for j in range(m + 1):
                fac = math.comb(n, i) * math.comb(m, j)
                acc += (
                    fac
                    * bump.deriv(n - i, x[mask])
                    * bump.deriv(m - j, y[mask])
                    * dd_part(i, j, x, y, mask)
                )
        out[mask] = acc
        return out

    def partial(m, n, x, y):
        # the symbol is symmetric, so its partial (m, n) at (x, y) is its
        # partial (n, m) at (y, x): each is evaluated where x > y, and on the
        # diagonal as the order with m >= n
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        swap = (x < y) | ((x == y) & (m < n))
        return np.where(swap, leibniz(n, m, y, x), leibniz(m, n, x, y))

    return partial


def _ref_inverse_partial(bump_s, bump_t):
    def partial(m, n, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        mask = (x > bump_s.lo) & (x < bump_s.hi) & (y > bump_t.lo) & (y < bump_t.hi)
        out = np.zeros(x.shape, dtype=float)
        if not np.any(mask):
            return out
        xm, ym = x[mask], y[mask]
        acc = np.zeros(xm.shape, dtype=float)
        for i in range(n + 1):
            for j in range(m + 1):
                fac = math.comb(n, i) * math.comb(m, j)
                inv = (-1.0) ** (i + j) * math.factorial(i + j) / (xm + ym) ** (1 + i + j)
                acc += fac * bump_s.deriv(n - i, xm) * bump_t.deriv(m - j, ym) * inv
        out[mask] = acc
        return out

    return partial


def _ref_fourier(partial, p, b, grid_n, richardson):
    c_pb = doi.fourier_coefficient_constant(p, b)

    def upper_on(n):
        x = doi._torus_grid(n)
        xg, yg = x[:, None], x[None, :]
        a0 = np.mean(partial(0, 0, xg, yg), axis=1)
        a0p = np.mean(partial(0, 1, xg, yg), axis=1)
        u0 = _ref_l2_mean(a0) + doi.PI_EMBED * _ref_l2_mean(a0p)
        u1 = c_pb * (
            _ref_l2_mean(partial(b, 0, xg, yg))
            + doi.PI_EMBED * _ref_l2_mean(partial(b, 1, xg, yg))
        )
        return (u0 ** p + u1 ** p) ** (1.0 / p)

    upper, err = upper_on(grid_n), 0.0
    if richardson:
        upper2 = upper_on(2 * grid_n)
        err = abs(upper2 - upper)
        upper, grid_n = upper2, 2 * grid_n
    return float(upper), c_pb, float(err), grid_n


def _ref_grid(grid_n, richardson):
    """The reference's (grid_n, richardson) whose bound is the route's bound
    on grid_n: grid_n with Richardson, or 2*grid_n without it."""
    return (grid_n, True) if richardson else (2 * grid_n, False)


def _use_reference_route(monkeypatch, richardson=True):
    """Make doi's composed bounds run the reference evaluation."""
    monkeypatch.setattr(doi, "localized_dd_periodic", _ref_dd_partial)
    monkeypatch.setattr(doi, "localized_inverse_sum_periodic", _ref_inverse_partial)
    monkeypatch.setattr(
        doi,
        "fourier_sobolev_bound",
        lambda partial, p, b, grid_n: doi.FourierSobolevBound(
            *_ref_fourier(partial, p, b, *_ref_grid(grid_n, richardson))
        ),
    )


def _bits(*values):
    return [float(v).hex() for v in values]


# the route adds its partials into the bound's moments block by block, and the
# reference takes means over whole tables: the sums run in other orders, so
# the bounds agree to within 4 ulps relative, and the quadrature errors (the
# difference of two bounds) to within 4 ulps of the bound
FEW_ULPS = 4 * np.finfo(float).eps


def _assert_within_few_ulps(got, want):
    for a, b in zip(got, want, strict=True):
        assert abs(a - b) <= FEW_ULPS * abs(b), (a, b)


def _tables(partials, orders, x):
    """The tables on x * x of the blocks ``partials(orders, x)`` yields: 0
    where no block holds a point, and no point is yielded twice."""
    outs = [np.zeros((x.size, x.size)) for _ in orders]
    seen = np.zeros((x.size, x.size), dtype=int)
    for rows, cols, vals in partials(orders, x):
        np.add.at(seen, (rows, cols), 1)
        for out, v in zip(outs, vals, strict=True):
            out[rows, cols] = v
    assert seen.max(initial=0) <= 1
    return outs


REF_FUNCTIONS = ["power:0.5", "log1p", "slog1p", "rational:1", "gauss"]
REF_PS = [0.4, 0.5, 0.7, 1.0]


@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("ref_richardson", [True, False])
@pytest.mark.parametrize("p", REF_PS)
@pytest.mark.parametrize("spec", REF_FUNCTIONS)
def test_dd_bounds_equal_the_per_partial_reference(spec, p, ref_richardson, block, monkeypatch):
    f = F.parse_function_spec(spec)
    b = doi.default_b_for(p)
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
    monkeypatch.setattr(doi, "DD_BLOCK", block)  # 16: 49 points make 4 blocks
    partials, ref = doi.localized_dd_periodic(f, bump), _ref_dd_partial(f, bump)
    x = doi._torus_grid(16)
    xg, yg = x[:, None], x[None, :]
    orders = [(0, 0), (0, 1), (b, 0), (b, 1)]
    got = [v.tobytes() for v in _tables(partials, orders, x)]
    assert got == [ref(m, n, xg, yg).tobytes() for m, n in orders]
    got = doi.fourier_sobolev_bound(partials, p, b, grid_n=8)
    upper, c_pb, err, grid_n = _ref_fourier(ref, p, b, *_ref_grid(8, ref_richardson))
    assert _bits(got.c_pb) == _bits(c_pb)
    _assert_within_few_ulps([got.upper], [upper])
    assert got.grid_n == grid_n == 16
    if ref_richardson:
        assert abs(got.quadrature_error - err) <= FEW_ULPS * upper
    kw = dict(grid_n=8)
    new = [doi.local_dd_bound(f, p, **kw), doi.dyadic_upper_bound(f, 2, 0.5, p, **kw)]
    _use_reference_route(monkeypatch, ref_richardson)
    old = [doi.local_dd_bound(f, p, **kw), doi.dyadic_upper_bound(f, 2, 0.5, p, **kw)]
    _assert_within_few_ulps(new, old)


@pytest.mark.parametrize("ref_richardson", [True, False])
@pytest.mark.parametrize("p", REF_PS)
def test_b0_bound_equals_the_per_partial_reference(p, ref_richardson, monkeypatch):
    b = doi.default_b_for(p)
    bump_s = doi.SmoothBump(0.75, 1.0, 2.0, 2.25, order=b + 2)
    bump_t = doi.SmoothBump(-0.25, 0.0, 2.0, 2.25, order=b + 2)
    partials = doi.localized_inverse_sum_periodic(bump_s, bump_t)
    ref = _ref_inverse_partial(bump_s, bump_t)
    x = doi._torus_grid(32)
    xg, yg = x[:, None], x[None, :]
    orders = [(0, 0), (0, 1), (b, 0), (b, 1)]
    got = [v.tobytes() for v in _tables(partials, orders, x)]
    assert got == [ref(m, n, xg, yg).tobytes() for m, n in orders]
    kw = dict(grid_n=16)
    new = [doi.b0_upper_bound(0.5, 1.0, p, **kw), doi.b0_upper_bound(0.3, 2.0, p, **kw)]
    _use_reference_route(monkeypatch, ref_richardson)
    old = [doi.b0_upper_bound(0.5, 1.0, p, **kw), doi.b0_upper_bound(0.3, 2.0, p, **kw)]
    _assert_within_few_ulps(new, old)


def _b0_bumps(b):
    return (
        doi.SmoothBump(0.75, 1.0, 2.0, 2.25, order=b + 2),
        doi.SmoothBump(-0.25, 0.0, 2.0, 2.25, order=b + 2),
    )


# grid 2 holds no point of either support, grid 4 one point of the dd support,
# grid 15 a point on its bump's rise, and grid 33 an odd number of them
BLOCK_GRIDS = [2, 4, 15, 16, 33]


@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("grid", BLOCK_GRIDS)
def test_partial_blocks_equal_the_per_partial_references_on_every_grid(grid, block, monkeypatch):
    monkeypatch.setattr(doi, "DD_BLOCK", block)
    x = doi._torus_grid(grid)
    xg, yg = x[:, None], x[None, :]
    for p in (0.5, 1.0):
        b = doi.default_b_for(p)
        orders = [(0, 0), (0, 1), (b, 0), (b, 1)]
        bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
        support = _support(bump, grid)
        for spec in ("power:0.5", "log1p"):
            f = F.parse_function_spec(spec)
            rule = doi._dd_orders(f, _dd_parts(b), support)
            ref = _ref_dd_partial(f, bump, rule=lambda y: rule[np.searchsorted(support, y)])
            got = _tables(doi.localized_dd_periodic(f, bump), orders, x)
            assert [v.tobytes() for v in got] == [ref(m, n, xg, yg).tobytes() for m, n in orders]
        bumps = _b0_bumps(b)
        got = _tables(doi.localized_inverse_sum_periodic(*bumps), orders, x)
        ref = _ref_inverse_partial(*bumps)
        assert [v.tobytes() for v in got] == [ref(m, n, xg, yg).tobytes() for m, n in orders]


@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("grid", BLOCK_GRIDS)
def test_partial_blocks_yield_each_support_point_once(grid, block, monkeypatch):
    # every point of the support rectangle once (on the dd route's diagonal
    # too), none off it, and no block longer than DD_BLOCK
    monkeypatch.setattr(doi, "DD_BLOCK", block)
    x = doi._torus_grid(grid)
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=4)
    routes = [
        (doi.localized_dd_periodic(F.parse_function_spec("log1p"), bump), (bump, bump)),
        (doi.localized_inverse_sum_periodic(*_b0_bumps(2)), _b0_bumps(2)),
    ]
    for partials, (bump_x, bump_y) in routes:
        seen = np.zeros((grid, grid), dtype=int)
        for rows, cols, vals in partials([(0, 0), (0, 1), (2, 0), (2, 1)], x):
            assert rows.size <= block and len(vals) == 4
            assert all(v.shape == rows.shape == cols.shape for v in vals)
            np.add.at(seen, (rows, cols), 1)
        inside = [(x > bump.lo) & (x < bump.hi) for bump in (bump_x, bump_y)]
        assert seen.tolist() == (inside[0][:, None] & inside[1][None, :]).astype(int).tolist()
        assert np.diagonal(seen).tolist() == (inside[0] & inside[1]).astype(int).tolist()


@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("grid_n", [2, 8, 33])
def test_coarse_moments_equal_the_moments_of_the_coarse_grid(grid_n, block, monkeypatch):
    # the moments of every other point of the 2 grid_n grid against those of
    # the partial tables on _torus_grid(grid_n), within the rounding bound of
    # their sums; without DD_ORDERS every dd row takes QUAD_NODES on both
    # grids, so the partials agree at each coarse point bit for bit
    monkeypatch.setattr(doi, "DD_BLOCK", block)
    monkeypatch.setattr(doi, "DD_ORDERS", ())
    b = 3
    orders = [(0, 0), (0, 1), (b, 0), (b, 1)]
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
    x = doi._torus_grid(grid_n)
    for partials in (
        doi.localized_dd_periodic(F.parse_function_spec("power:0.5"), bump),
        doi.localized_inverse_sum_periodic(*_b0_bumps(b)),
    ):
        _, coarse = doi._fourier_moments(partials, b, 2 * grid_n)
        tables = _tables(partials, orders, x)
        terms = tables[:2] + [v**2 for v in tables[2:]]
        for got, v in zip(coarse, terms, strict=True):
            bound = grid_n * np.finfo(float).eps * np.abs(v).sum(axis=1)
            assert np.all(np.abs(got - v.sum(axis=1)) <= bound)


def _spy_on_the_probe(monkeypatch, calls):
    """Record, per call of doi._dd_orders, how many entries ``calls`` held
    when it returned and the orders it returned."""
    probes, dd_orders = [], doi._dd_orders

    def spy(*args):
        rule = dd_orders(*args)
        probes.append((len(calls), rule))
        return rule

    monkeypatch.setattr(doi, "_dd_orders", spy)
    return probes


def _runs(rule, size, block):
    """(size, order) of each run of one order in the blocks of the pairs
    x >= y of a support of ``size`` points, taken in the order of y."""
    n = rule[np.triu_indices(size)[0]]
    runs = []
    for s in range(0, n.size, block):
        part = n[s : s + block]
        cuts = [0, *(np.flatnonzero(np.diff(part)) + 1), part.size]
        runs += [(e - c, int(part[c])) for c, e in zip(cuts, cuts[1:])]
    return runs


def test_richardson_evaluates_derivatives_on_the_finer_grid_only(monkeypatch):
    f = F.parse_function_spec("log1p")

    sizes = []

    def deriv(k, z):
        sizes.append((k, z.size))
        return f.deriv(k, z)

    probes = _spy_on_the_probe(monkeypatch, sizes)
    doi.local_dd_bound(dataclasses.replace(f, deriv=deriv), 1.0, grid_n=8)
    # one probe of the rows of the support's 7 points of the 16 x 16 grid,
    # then one call per node of each run's rule and derivative order 1..b+2
    # on the 7 * 8 / 2 unordered pairs of that support, and none on the
    # 8 x 8 grid
    x = doi._torus_grid(16)
    side = int(np.sum((x > 0.125) & (x < math.pi)))
    assert side == 7
    [(cut, rule)] = probes
    assert rule.shape == (7,) and all(size <= 7 for _, size in sizes[:cut])
    runs = _runs(rule, 7, doi.DD_BLOCK)
    assert sum(size for size, _ in runs) == 28
    assert sizes[cut:] == [(k, size) for size, n in runs for _ in range(n) for k in range(1, 5)]


@pytest.mark.parametrize("grid", [15, 16, 4, 2, 33])
@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("spec", ["power:0.5", "log1p"])
def test_dd_partials_are_transposes_of_their_transposed_orders(spec, p, block, grid, monkeypatch):
    # grid 15 has a support point on the bump's rise; grid 4 has a one-point
    # support, so its pair list is the diagonal alone; grid 2 has none
    f = F.parse_function_spec(spec)
    b = doi.default_b_for(p)
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
    monkeypatch.setattr(doi, "DD_BLOCK", block)
    x = doi._torus_grid(grid)
    orders = [(0, 1), (1, 0), (b, 0), (0, b), (b, 1), (1, b)]
    outs = _tables(doi.localized_dd_periodic(f, bump), orders, x)
    for mn, nm in zip(outs[::2], outs[1::2]):
        assert mn.tobytes() == nm.T.tobytes()
        assert np.any(mn != 0.0) == (grid > 2)
    if grid == 4:
        assert np.flatnonzero(outs[1]).tolist() == [3 * 4 + 3]


@pytest.mark.parametrize("block", [16, 4096])
@pytest.mark.parametrize("grid", [15, 16, 4])
def test_dd_table_evaluates_each_unordered_pair_once_per_node(grid, block, monkeypatch):
    calls = []
    derivatives = F.ScalarFunction.derivatives

    def spy(self, top, z):
        calls.append(np.array(z))
        return derivatives(self, top, z)

    monkeypatch.setattr(F.ScalarFunction, "derivatives", spy)
    monkeypatch.setattr(doi, "DD_BLOCK", block)
    probes = _spy_on_the_probe(monkeypatch, calls)
    x = doi._torus_grid(grid)
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=4)
    xs = x[(x > bump.lo) & (x < bump.hi)]
    c, a = np.triu_indices(xs.size)
    # log1p takes few orders; power:0.5 takes 64 nodes on its first rows
    for spec in ("log1p", "power:0.5"):
        calls.clear()
        probes.clear()
        f = F.parse_function_spec(spec)
        list(doi.localized_dd_periodic(f, bump)([(0, 0), (0, 1), (2, 0), (2, 1)], x))
        # after the probe, the support's pairs (x_a, x_c) with x_a >= x_c, each
        # evaluated at t x_a + (1 - t) x_c for every node t of its row's rule
        [(cut, rule)] = probes
        assert all(z.size <= xs.size for z in calls[:cut])
        want = []
        for n in np.unique(rule):
            at = rule[c] == n
            t = doi._gauss_legendre_01(int(n))[0][:, None]
            want.append((t * xs[a[at]] + (1.0 - t) * xs[c[at]]).ravel())
        assert len(calls) - cut == sum(n for _, n in _runs(rule, xs.size, block))
        seen = np.concatenate(calls[cut:])
        assert np.sort(seen).tobytes() == np.sort(np.concatenate(want)).tobytes()


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_dyadic_bound_assembles_its_partials_per_block(p):
    # the traced peak is one block's kernel table and Leibniz sums, 1.9-2.4
    # MiB for dyadic:2 and 1.1-1.4 MiB for b0 at either grid; one partial
    # table of the 1024 x 1024 grid alone takes 8 MiB
    f = F.parse_function_spec("log1p")
    doi.dyadic_upper_bound(f, 2, 0.5, p, grid_n=8)
    for grid_n in (256, 512):
        for bound in (
            lambda: doi.dyadic_upper_bound(f, 2, 0.5, p, grid_n=grid_n),
            lambda: doi.b0_upper_bound(0.5, 1.0, p, grid_n=grid_n),
        ):
            tracemalloc.start()
            try:
                bound()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, (grid_n, peak)


def test_dd_bound_names_the_first_missing_derivative_order():
    # p = 0.25 needs b = 5, so the partial (5, 1) needs f^(7); the catalog has 6
    with pytest.raises(CapabilityError, match="localized bound needs derivative order 7"):
        doi.local_dd_bound(F.parse_function_spec("power:0.5"), 0.25, grid_n=8)


def test_dd_probe_names_the_missing_derivative_order_before_it_evaluates(monkeypatch):
    calls = []
    monkeypatch.setattr(F.ScalarFunction, "derivatives", lambda self, top, z: calls.append(z))
    with pytest.raises(CapabilityError, match="localized bound needs derivative order 7"):
        doi.local_dd_bound(F.parse_function_spec("power:0.5"), 0.25, grid_n=8)
    assert calls == []


ACCURACY_FUNCTIONS = [
    "power:0.5", "spower:0.5", "power:0.25", "log1p", "slog1p",
    "rational:1", "srational:1", "gauss", "sexpm1",
]


@pytest.mark.parametrize("spec", ACCURACY_FUNCTIONS)
def test_dd_orders_keep_the_table_within_1e13_of_a_200_node_rule(spec):
    # each row's probed order against a 200-node rule, relative to each
    # part's largest value on the grid: on every support pair of the grids
    # 16 and 66, and at grid 512 (30135 pairs) on the pairs whose x is 0, 8,
    # 16, ... points right of y and on each row's longest pair
    for k in (-3, 0, 2, 7):
        f = F.dilate_function(F.parse_function_spec(spec), 2.0 ** k)
        for b in (2, 3, 4):
            parts = _dd_parts(b)
            bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
            pairs = []
            for grid in (16, 66, 512):
                support = _support(bump, grid)
                rule = doi._dd_orders(f, parts, support)
                c, a = np.triu_indices(support.size)
                if grid == 512:
                    keep = ((a - c) % 8 == 0) | (a == support.size - 1)
                    c, a = c[keep], a[keep]
                pairs.append((support[a], support[c], rule[c], np.full(a.size, grid)))
            x, y, n, grids = map(np.concatenate, zip(*pairs))
            got = doi._dd_table(f, parts, x, y, n)
            ref = doi._dd_table(f, parts, x, y, np.full(x.size, 200))
            for grid in (16, 66, 512):
                on = grids == grid
                for ij in parts:
                    err = np.abs(got[ij][on] - ref[ij][on]).max()
                    assert err <= 1e-13 * np.abs(ref[ij][on]).max(), (k, b, grid, ij)


@pytest.mark.parametrize("grid", [15, 16, 66])
@pytest.mark.parametrize("spec", ["power:0.5", "log1p"])
def test_dd_tables_without_orders_take_quad_nodes_on_every_row(spec, grid, monkeypatch):
    monkeypatch.setattr(doi, "DD_ORDERS", ())
    f = F.parse_function_spec(spec)
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=5)
    orders = [(0, 0), (0, 1), (3, 0), (3, 1)]
    x = doi._torus_grid(grid)
    got = _tables(doi.localized_dd_periodic(f, bump), orders, x)
    ref = _ref_dd_partial(f, bump, rule=lambda y: np.full(y.shape, doi.QUAD_NODES))
    xg, yg = x[:, None], x[None, :]
    assert [v.tobytes() for v in got] == [ref(m, n, xg, yg).tobytes() for m, n in orders]


@pytest.mark.parametrize("b", [2, 3])
def test_dd_orders_at_the_default_grid(b):
    bump = doi.SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2)
    support = _support(bump, 512)
    log1p = F.dilate_function(F.parse_function_spec("log1p"), 4.0)
    assert doi._dd_orders(log1p, _dd_parts(b), support).max() <= 12
    # power:0.5 is singular at 0, left of the support's first row
    power = doi._dd_orders(F.parse_function_spec("power:0.5"), _dd_parts(b), support)
    assert power[0] == doi.QUAD_NODES and np.all(np.diff(power) <= 0)


# --- the stacked empirical lower bound against the per-trial loop ---------------------


def _ref_empirical_lower(a, p, dim, trials, seed):
    """The empirical lower bound one trial at a time: per (trial, attempt)
    seed, the symbol m on one spectrum pair, then ||m * V||_p / ||V||_p."""
    best, resampled = 0.0, 0
    for t in range(trials):
        for attempt in range(doi.MAX_RESAMPLE + 1):
            rng = seed.child(t, attempt).rng()
            lam = np.sort(rng.uniform(*a.lambda_range, size=dim))
            mu = np.sort(rng.uniform(*a.mu_range, size=dim))
            v = ginibre(dim, rng)
            try:
                m = np.asarray(a.eval(lam[:, None], mu[None, :]), dtype=complex)
            except SingularityError:
                m = np.full((dim, dim), np.nan)
            if not np.all(np.isfinite(m)):
                resampled += 1
                continue
            out = m * v
            den = hl.norm(v, hl.Schatten(p))
            best = max(best, 0.0 if den == 0.0 else hl.norm(out, hl.Schatten(p)) / den)
            break
        else:
            raise SingularityError(f"symbol {a.description}: sampling kept hitting singular spectra")
    return doi.EmpiricalLower(value=best, trials=trials, resampled=resampled)


LOWER_SYMBOLS = {
    "alpha": doi.alpha_symbol(),
    "beta": doi.beta_symbol(),
    "b0": doi.b0_symbol(0.5),
    "b1": doi.b1_symbol(0.3, 2.0),
    "g_2[power:0.5]": doi.dyadic_symbols(F.power(0.5), 2)[0],
    "h_-1[log1p]": doi.dyadic_symbols(F.log1p_abs(), -1)[1],
    "g_0[slog1p]": doi.dyadic_symbols(F.signed_log1p(), 0)[0],
    "dd[slog1p]": doi.dd_symbol(F.signed_log1p()),
    "dd[gauss]": doi.dd_symbol(F.gauss_bump()),
}
LOWER_DIMS = [1, 2, 3, 4, 5, 6, 7, 8, 16]


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("name", ["alpha", "b0", "g_2[power:0.5]"])
def test_haar_bases_leave_the_lower_bound_ratio_unchanged(name, p):
    # the ratio the lower bound samples, ||m * G||_p / ||G||_p with G = U* V W,
    # is the ratio of T_a in Haar bases U, W, ||U (m * G) W*||_p / ||V||_p
    sym, spec = LOWER_SYMBOLS[name], hl.Schatten(p)
    rng = np.random.default_rng(27)
    for dim in (1, 3, 6):
        for _ in range(5):
            lam = np.sort(rng.uniform(*sym.lambda_range, size=dim))
            mu = np.sort(rng.uniform(*sym.mu_range, size=dim))
            m = doi.symbol_matrix(sym, lam, mu)
            v = ginibre(dim, rng)
            u, w = hl.haar_unitary(dim, rng), hl.haar_unitary(dim, rng)
            g = u.conj().T @ v @ w
            action = hl.norm(u @ (m * g) @ w.conj().T, spec)
            assert action == pytest.approx(hl.norm(m * g, spec), rel=1e-12, abs=0.0)
            assert hl.norm(v, spec) == pytest.approx(hl.norm(g, spec), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("name", LOWER_SYMBOLS)
def test_empirical_lower_equals_the_per_trial_loop(name, p, monkeypatch):
    # stacks of 3 trials, so 7 trials make two full stacks and one of 1
    sym = LOWER_SYMBOLS[name]
    for dim in LOWER_DIMS:
        monkeypatch.setattr(doi, "STACK_ENTRIES", 3 * 3 * dim * dim)
        seed = SeedState(200 + dim, (int(p * 10),))
        assert doi.empirical_mp_lower(sym, p, dim, 7, seed) == _ref_empirical_lower(
            sym, p, dim, 7, seed
        )


@pytest.mark.parametrize("dim, trials", [(6, 38), (8, 22), (16, 11)])
def test_empirical_lower_crosses_the_real_stack_bound(dim, trials):
    # STACK_ENTRIES // (3 dim^2) trials per stack: 37 at dim 6, 21 at 8, 5 at 16
    assert max(1, doi.STACK_ENTRIES // (3 * dim * dim)) < trials
    for name in ("alpha", "g_2[power:0.5]", "dd[slog1p]"):
        sym, seed = LOWER_SYMBOLS[name], SeedState(300, (dim,))
        got = doi.empirical_mp_lower(sym, 1.0, dim, trials, seed)
        assert got == _ref_empirical_lower(sym, 1.0, dim, trials, seed)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(LOWER_SYMBOLS)),
    p=st.sampled_from([0.5, 0.7, 1.0, 2.0]),
    dim=st.integers(1, 9),
    trials=st.integers(1, 12),
    size=st.integers(1, 5),
    root=st.integers(0, 2**32 - 1),
)
def test_empirical_lower_equals_the_per_trial_loop_on_drawn_cases(
    name, p, dim, trials, size, root
):
    sym, seed = LOWER_SYMBOLS[name], SeedState(root)
    old = doi.STACK_ENTRIES
    doi.STACK_ENTRIES = size * 3 * dim * dim
    try:
        got = doi.empirical_mp_lower(sym, p, dim, trials, seed)
    finally:
        doi.STACK_ENTRIES = old
    assert got == _ref_empirical_lower(sym, p, dim, trials, seed)


def _sometimes_infinite(s, t):
    # not finite when some lambda of the draw exceeds 0.8
    s, t = np.broadcast_arrays(np.asarray(s), np.asarray(t))
    return np.where(s > 0.8, np.inf, np.cos(s - t))


def test_empirical_lower_redraws_non_finite_symbol_matrices():
    sym = doi.BivariateSymbol(_sometimes_infinite, "cos", lambda_range=(0.0, 1.0))
    got = doi.empirical_mp_lower(sym, 1.0, 3, 40, SeedState(21))
    assert got == _ref_empirical_lower(sym, 1.0, 3, 40, SeedState(21))
    assert got.resampled >= 10


def test_empirical_lower_evaluates_a_raising_stack_one_trial_at_a_time():
    shapes = []

    def ev(s, t):
        shapes.append(np.shape(s)[0])
        if np.any(np.asarray(s) > 0.9):
            raise SingularityError("lambda above 0.9")
        return np.cos(np.asarray(s) - np.asarray(t))

    sym = doi.BivariateSymbol(ev, "cos", lambda_range=(0.0, 1.0))
    got = doi.empirical_mp_lower(sym, 1.0, 3, 40, SeedState(22))
    # the first stack holds all 40 trials and raises, so its round is redone
    # one trial at a time
    assert shapes[:2] == [40, 1] and shapes.count(1) >= 40
    assert got == _ref_empirical_lower(sym, 1.0, 3, 40, SeedState(22))
    assert got.resampled >= 10


@pytest.mark.parametrize("dim, trials, stacks", [(6, 80, [37, 37, 6]), (64, 3, [1, 1, 1])])
def test_empirical_lower_draws_bounded_stacks(dim, trials, stacks, monkeypatch):
    sizes = []

    def spy(dim, lambda_range, mu_range, seeds):
        sizes.append(len(seeds))
        return sample_schur_instances(dim, lambda_range, mu_range, seeds)

    monkeypatch.setattr(doi, "sample_schur_instances", spy)
    doi.empirical_mp_lower(doi.alpha_symbol(), 1.0, dim, trials, SeedState(26))
    assert sizes == stacks


@pytest.mark.parametrize("kind", ["nan", "raise"])
def test_empirical_lower_always_singular_symbol_names_itself(kind):
    def ev(s, t):
        if kind == "raise":
            raise SingularityError("never finite")
        return np.full(np.broadcast(s, t).shape, np.nan)

    sym = doi.BivariateSymbol(ev, "hopeless")
    for trials in (1, 5):
        with pytest.raises(SingularityError, match="hopeless: sampling kept hitting singular"):
            doi.empirical_mp_lower(sym, 1.0, 2, trials, SeedState(23))
        with pytest.raises(SingularityError, match="hopeless: sampling kept hitting singular"):
            _ref_empirical_lower(sym, 1.0, 2, trials, SeedState(23))


def test_schur_apply_over_a_stack_equals_each_instance():
    rng = np.random.default_rng(24)
    sym = LOWER_SYMBOLS["dd[slog1p]"]
    decs = [decs_for(gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)) for _ in range(5)]
    vs = np.stack([ginibre(4, rng) for _ in range(5)])

    def stacked(k):
        return hl.SpectralDecomposition(
            np.stack([d[k].eigenvalues for d in decs]), np.stack([d[k].basis for d in decs])
        )

    got = doi.schur_apply(sym, stacked(0), stacked(1), vs)
    want = [doi.schur_apply(sym, da, db, v) for (da, db), v in zip(decs, vs)]
    assert got.tobytes() == np.stack(want).tobytes()


def test_schur_apply_over_a_stack_names_the_singular_pair():
    def ev(s, t):
        s, t = np.broadcast_arrays(np.asarray(s), np.asarray(t))
        return np.where(s == 3.0, np.nan, 1.0)

    sym = doi.BivariateSymbol(ev, "one")
    lam = np.array([[0.0, 1.0], [2.0, 3.0]])
    dec = hl.SpectralDecomposition(lam, np.stack([np.eye(2, dtype=complex)] * 2))
    with pytest.raises(SingularityError, match=r"\(lambda, mu\) = \(3.0, 2.0\)"):
        doi.schur_apply(sym, dec, dec, np.zeros((2, 2, 2)))


def test_schur_instances_are_the_per_seed_draws():
    seeds = [SeedState(25, (t,)) for t in range(4)]
    lam, mu, v = sample_schur_instances(3, (0.5, 1.0), (-2.0, 0.0), seeds)
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        assert lam[i].tobytes() == np.sort(rng.uniform(0.5, 1.0, size=3)).tobytes()
        assert mu[i].tobytes() == np.sort(rng.uniform(-2.0, 0.0, size=3)).tobytes()
        assert v[i].tobytes() == ginibre(3, rng).tobytes()


@pytest.mark.parametrize(
    "lambda_range, mu_range, message",
    [
        ((-np.inf, -np.inf), (1e-6, np.inf), "bad lambda range"),
        ((0.5, 1.0), (1e-6, np.inf), "bad mu range"),
        ((0.5, 1.0), (1e-6, 4e-7), "bad mu range"),
        ((1.0, 0.5), (0.0, 1.0), "bad lambda range"),
        ((-1e308, 1e308), (0.0, 1.0), "bad lambda range"),
        ((0.5, 1.0), (np.nan, 1.0), "bad mu range"),
    ],
)
def test_schur_instances_need_finite_ranges(lambda_range, mu_range, message):
    with pytest.raises(ParameterError, match=message):
        sample_schur_instances(3, lambda_range, mu_range, [SeedState(25)])


def test_a_schur_range_of_one_point_draws_that_point():
    # b0 and b1 at a = 2.5e-7 draw mu from (1e-6, 4a) = (1e-6, 1e-6)
    _, mu, _ = sample_schur_instances(3, (0.5, 1.0), (1e-6, 4 * 2.5e-7), [SeedState(25)])
    assert mu.tolist() == [[1e-6] * 3]


@pytest.mark.parametrize("k", [41, 50, -1023, -2000])
def test_dyadic_band_index_outside_the_sampling_range_is_rejected(k):
    with pytest.raises(ParameterError, match=r"dyadic band index must lie in \[-1022, 40\]"):
        doi.dyadic_symbols(F.log1p_abs(), k)


def test_nan_dyadic_upper_bound_is_an_error():
    # dilating log1p by 2^-500 underflows its derivatives to 0 / 0
    with pytest.raises(CapabilityError, match=r"g_-500\[log1p\] is not finite \(NaN\)"):
        doi.dyadic_upper_bound(F.log1p_abs(), -500, 0.5, 1.0, grid_n=8)
    # an infinite bound stays a bound
    assert doi.dyadic_upper_bound(F.signed_expm1(), 2, 0.5, 1.0, grid_n=8) == np.inf


CATALOG = ["power:0.5", "spower:0.5", "log1p", "slog1p", "rational:1", "srational:1", "sexpm1",
           "gauss", "linear"]


def test_dyadic_upper_bounds_are_not_taken_from_flushed_terms(monkeypatch):
    # far below K = 0 a derivative of the dilation overflows and is flushed to
    # 0, so a finite bound would miss its term; each evaluation of the dilation
    # is first probed for an overflow, then made again under the caller's
    # error state, so the bound computed is the one without the probe
    overflowed = []
    dilate = doi.dilate_function

    def probe(fn):
        def evaluate(*args):
            with np.errstate(all="ignore", over="raise"):
                try:
                    fn(*args)
                except FloatingPointError:
                    overflowed.append(True)
            return fn(*args)

        return evaluate

    def probed(f, r):
        fk = dilate(f, r)
        return dataclasses.replace(fk, eval=probe(fk.eval), deriv=probe(fk.deriv))

    monkeypatch.setattr(doi, "dilate_function", probed)
    refused = []
    for name in CATALOG:
        f = F.parse_function_spec(name)
        for k in range(-1022, 41, 13):
            overflowed.clear()
            try:
                upper = doi.dyadic_upper_bound(f, k, 0.5, 1.0, grid_n=2)
            except CapabilityError:
                refused.append((name, k))
                continue
            assert not (overflowed and math.isfinite(upper)), (name, k, upper)
    # rational:1 at K = -229 gave 1.39e-64 with its flushed terms missing
    assert ("rational:1", -229) in refused

