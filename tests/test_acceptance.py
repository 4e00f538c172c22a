"""Acceptance suite: every exit criterion as one test at its stated
tolerance.  Run with  pytest tests/test_acceptance.py -v -s  to see the
per-criterion pass lines."""

import time

import numpy as np
import pytest

import holderlab as hl
from holderlab import doi
from holderlab import functions as F
from holderlab.campaign import CampaignConfig, run_campaign
from holderlab.ensembles import SeedState, gaussian_hermitian
from holderlab.norms import KyFan, Schatten

from conftest import fixed_spectrum


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_01_bks_constant_one():
    t0 = time.time()
    norms = tuple(f"kyfan:{k}" for k in range(1, 9)) + (
        "schatten:1",
        "schatten:2",
        "schatten:inf",
    )
    cfg = CampaignConfig(
        verifier="bks",
        thetas=(0.25, 0.5, 0.75),
        ps=(1.0,),
        norms=norms,
        dims=(8,),
        trials=1000,
        seed=101,
    )
    report, counterexamples = run_campaign(cfg)
    elapsed = time.time() - t0
    worst = max(c.max_ratio for c in report.cells)
    assert len(report.cells) == 33
    assert all(c.failures == 0 for c in report.cells)
    assert worst <= 1.0 + 1e-10
    assert not counterexamples
    assert elapsed <= 120.0
    _report(1, f"power-difference constant 1: max ratio {worst:.12f} over 33 cells x 1000 "
               f"trials in {elapsed:.1f}s")


def test_criterion_02_powers_stormer():
    cfg = CampaignConfig(
        verifier="bks",
        thetas=(0.5,),
        ps=(2.0,),
        norms=("schatten:2",),
        dims=(8,),
        trials=1000,
        seed=102,
    )
    report, _ = run_campaign(cfg)
    worst = report.cells[0].max_ratio
    assert worst <= 1.0 + 1e-10
    constructed = hl.verify_bks(0.5, Schatten(2), np.diag([1.0, 0.0]), np.zeros((2, 2)))
    assert constructed.ratio == 1.0
    _report(2, f"square-root half-norm bound: campaign max {worst:.12f}; "
               f"constructed instance ratio exactly {constructed.ratio}")


def test_criterion_03_multiplier_identity_residual():
    funcs = [F.power(0.5), F.log1p_abs()]
    worst = 0.0
    for i in range(500):
        dim = 2 + i % 9  # dims 2..10
        rng = SeedState(103, (i,)).rng()
        f = funcs[i % 2]
        mags_a = rng.uniform(0.25, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
        mags_b = rng.uniform(0.25, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
        a, _, _ = fixed_spectrum(mags_a, rng)
        b, _, _ = fixed_spectrum(mags_b, rng)
        dec_a, dec_b = hl.eig_hermitian(a), hl.eig_hermitian(b)
        cut_a = rng.uniform(-1.0, 1.0)
        cut_b = rng.uniform(-1.0, 1.0)
        p_proj = hl.spectral_projection(dec_a, cut_a, np.inf)
        q_proj = hl.spectral_projection(dec_b, -np.inf, cut_b)
        worst = max(worst, hl.doi_lipschitz_identity(f, a, b, p_proj, q_proj))
    assert worst <= 1e-8
    _report(3, f"projected difference identity: residual max {worst:.2e} on 500 instances")


def test_criterion_04_band_reconstruction():
    funcs = [F.power(0.5), F.log1p_abs()]
    worst = 0.0
    for i in range(200):
        dim = 2 + i % 7  # dims 2..8
        rng = SeedState(104, (i,)).rng()
        f = funcs[i % 2]
        mags = rng.uniform(2.0**-4, 1.99, dim) * rng.choice([-1.0, 1.0], dim)
        a, _, _ = fixed_spectrum(mags, rng)
        mags2 = rng.uniform(2.0**-4, 1.99, dim) * rng.choice([-1.0, 1.0], dim)
        b, _, _ = fixed_spectrum(mags2, rng)
        res = hl.representation_reconstruct(f, a, b, (-1, 4))
        assert res.covered
        worst = max(worst, res.residual)
    assert worst <= 1e-8
    _report(4, f"dyadic band reconstruction: residual max {worst:.2e} on 200 instances")


def test_criterion_05_alt_submajorization():
    cfg = CampaignConfig(
        verifier="alt",
        thetas=(0.3, 0.5, 0.7),
        ps=(0.5, 1.0, 2.0),
        norms=("-",),
        dims=(6,),
        trials=1000,
        seed=105,
    )
    report, counterexamples = run_campaign(cfg)
    worst_violation = max(c.max_ratio for c in report.cells)
    assert all(c.failures == 0 for c in report.cells)
    assert worst_violation <= 1e-10  # margins never below -1e-10
    assert not counterexamples
    _report(5, f"product-power submajorization: worst margin violation {worst_violation:.2e} "
               f"over 9 cells x 1000 pairs")


def test_criterion_06_dyadic_scalar_sum():
    worst_slack = np.inf
    for theta in (0.3, 0.7):
        for q in (0.5, 1.0, 2.0):
            for alpha in np.logspace(-6, 6, 50):
                res = F.scalar_sum_555(theta, q, float(alpha))
                bound = res.rhs_constant * alpha ** (theta * q)
                assert res.lhs <= bound
                assert res.tail_bound < 1e-12
                worst_slack = min(worst_slack, bound / res.lhs)
    assert worst_slack >= 1.0
    _report(6, f"dyadic scalar sum vs explicit constant: min(bound/lhs) {worst_slack:.4f} "
               f"on 300 parameter points, tails certified < 1e-12")


def test_criterion_07_main_stability():
    dims = (2, 4, 6, 8, 10, 12)
    slopes = {}
    for fname in ("power:0.5", "log1p", "rational:1"):
        for p in (0.5, 1.0, 2.0):
            cfg = CampaignConfig(
                verifier="main",
                function=fname,
                thetas=(0.5,),
                ps=(p,),
                norms=("-",),
                dims=dims,
                trials=120,
                seed=107,
            )
            report, _ = run_campaign(cfg)
            mx = np.array([c.max_ratio for c in report.cells])
            assert np.all(np.isfinite(mx)) and np.all(mx > 0)
            slope = np.polyfit(np.log(np.array(dims, float)), np.log(mx), 1)[0]
            slopes[(fname, p)] = slope
            assert slope <= 0.1
    # homogeneous scaling invariance of the ratio for the power function
    f = F.power(0.5)
    rng = np.random.default_rng(1070)
    a, b = gaussian_hermitian(6, rng), gaussian_hermitian(6, rng)
    base = hl.verify_main(f, 0.5, 1.0, a, b).ratio
    drift = max(
        abs(hl.verify_main(f, 0.5, 1.0, r * a, r * b).ratio - base)
        for r in (0.01, 0.125, 8.0, 117.0)
    )
    assert drift <= 1e-10
    flat = max(slopes.values())
    _report(7, f"main estimate: all 9 campaigns finite, max log-log slope {flat:+.3f} <= 0.1, "
               f"scaling drift {drift:.2e}")


def test_criterion_08_multiplier_bound_consistency():
    p = 1.0
    up_alpha = doi.decomposition_bound(doi.alpha_decomposition(), p)
    up_beta = doi.decomposition_bound(doi.beta_decomposition(), p)
    assert up_alpha == pytest.approx(4.0, abs=1e-12)
    assert up_beta == pytest.approx(2.0, abs=1e-12)
    lo_alpha = doi.empirical_mp_lower(doi.alpha_symbol(), p, 6, 2000, SeedState(108)).value
    lo_beta = doi.empirical_mp_lower(doi.beta_symbol(), p, 6, 2000, SeedState(1080)).value
    assert lo_alpha <= up_alpha * (1.0 + 1e-8)
    assert lo_beta <= up_beta * (1.0 + 1e-8)

    theta = 0.5
    f = F.power(theta)
    normalized = []
    for k in range(-3, 4):
        g_k, _ = doi.dyadic_symbols(f, k)
        lower = doi.empirical_mp_lower(g_k, p, 6, 300, SeedState(1081)).value
        upper = doi.dyadic_upper_bound(f, k, theta, p, grid_n=64)
        assert lower <= upper * (1.0 + 1e-8)
        normalized.append(2.0 ** (k * (theta - 1.0)) * lower)
    spread = max(normalized) / min(normalized)
    assert spread <= 10.0
    _report(8, f"multiplier bounds: alpha {lo_alpha:.3f}<=4, beta {lo_beta:.3f}<=2, "
               f"band-symbol scaling spread {spread:.3f} <= 10 over k in -3..3")


def test_criterion_09_abs_map_classical_constant():
    cfg = CampaignConfig(
        verifier="absmap",
        thetas=(0.5,),
        ps=(2.0, 3.0, 4.0),
        norms=("schatten:1",),
        dims=(4, 8),
        trials=1000,
        seed=109,
    )
    report, counterexamples = run_campaign(cfg)
    worst = max(c.max_ratio for c in report.cells)
    assert all(c.failures == 0 for c in report.cells)
    assert worst <= 1.0 + 1e-8
    assert not counterexamples
    _report(9, f"absolute-value map constant 1 at p>=2: max ratio {worst:.12f} "
               f"over 6 cells x 1000 pairs")


def test_criterion_10_cayley_and_commutator_invariance():
    f = F.power(0.5)
    worst = 0.0
    for i in range(500):
        rng = SeedState(110, (i,)).rng()
        dim = 2 + i % 7
        x = gaussian_hermitian(dim, rng)
        b = gaussian_hermitian(dim, rng)
        worst = max(worst, hl.cayley_identity_residual(f, x, b))
    assert worst <= 1e-10

    drift = 0.0
    rng = np.random.default_rng(1100)
    for _ in range(20):
        x = gaussian_hermitian(5, rng)
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        base = hl.verify_commutator(f, 0.5, 1.0, KyFan(5), x, b).ratio
        for c in (0.25, 9.0):
            scaled = hl.verify_commutator(f, 0.5, 1.0, KyFan(5), x, c * b).ratio
            drift = max(drift, abs(scaled - base))
    assert drift <= 1e-10
    _report(10, f"unitary-conjugation identity residual {worst:.2e} on 500 instances; "
                f"commutator ratio scale drift {drift:.2e}")


def test_criterion_11_campaign_determinism(tmp_path):
    from holderlab.cli import main

    cfg = {
        "verifier": "bks",
        "thetas": [0.25, 0.75],
        "ps": [1.0],
        "norms": ["schatten:1", "kyfan:4"],
        "dims": [6],
        "trials": 200,
        "seed": 111,
    }
    import json

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "report.csv").read_bytes()
    b2 = (tmp_path / "r2" / "report.csv").read_bytes()
    assert b1 == b2
    _report(11, f"re-run reproduces the flat table byte-identically ({len(b1)} bytes)")


def test_criterion_12_derivative_budget_and_seminorm():
    assert F.d_of_p(1.0) == 4
    assert F.d_of_p(2.0) == 4
    assert F.d_of_p(0.5) == 5
    est = F.seminorm(F.power(0.5), 2, 0.5)
    assert abs(est.value - 1.0) <= 1e-12
    assert np.abs(est.per_order - np.array([1.0, 0.5, 0.25])).max() <= 1e-12
    _report(12, "derivative budget d(1)=4, d(2)=4, d(1/2)=5; square-root seminorm "
                "per-order (1, 0.5, 0.25) within 1e-12")
