import math

import numpy as np
import pytest

import holderlab as hl
from holderlab import campaign, verify
from holderlab.campaign import CampaignConfig
from holderlab.errors import ParameterError
from holderlab.norms import (
    SUBMAJ_TOL,
    KyFan,
    PowerOf,
    Schatten,
    _submajorization_margin,
    least_domination_constant,
    norm_of_profile,
    parse_norm_spec,
)


def _norm(x, spec):
    return norm_of_profile(hl.singular_values(x), spec)


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_singular_values_examples():
    assert np.allclose(hl.singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])
    assert np.allclose(hl.singular_values(np.zeros((3, 3))), np.zeros(3))


def test_singular_values_gram_oracle():
    rng = np.random.default_rng(0)
    x = random_matrix(5, rng)
    want = np.sqrt(np.sort(np.linalg.eigvalsh(x.conj().T @ x))[::-1])
    assert np.abs(hl.singular_values(x) - want).max() <= 1e-10


def test_norm_values():
    x = np.diag([3.0, 4.0])
    assert _norm(x, Schatten(1)) == pytest.approx(7.0)
    assert _norm(x, Schatten(np.inf)) == pytest.approx(4.0)
    want_half = (math.sqrt(3.0) + 2.0) ** 2
    assert _norm(x, Schatten(0.5)) == pytest.approx(want_half, rel=1e-12)
    assert _norm(x, PowerOf(KyFan(2), 0.5)) == pytest.approx(want_half, rel=1e-12)


def test_kyfan_index_above_dim_is_trace_norm():
    x = np.diag([3.0, 4.0])
    assert _norm(x, KyFan(5)) == pytest.approx(_norm(x, Schatten(1)))


def test_power_of_schatten_is_schatten():
    rng = np.random.default_rng(2)
    x = random_matrix(4, rng)
    for q, p in [(1.0, 0.5), (2.0, 0.25), (1.0, 2.0)]:
        assert _norm(x, PowerOf(Schatten(q), p)) == pytest.approx(
            _norm(x, Schatten(p * q)), rel=1e-12
        )


def test_unitary_invariance():
    rng = np.random.default_rng(3)
    x = random_matrix(5, rng)
    u, v = hl.haar_unitary(5, rng), hl.haar_unitary(5, rng)
    specs = [Schatten(0.5), Schatten(1), Schatten(2), Schatten(np.inf),
             KyFan(3), PowerOf(KyFan(2), 0.5)]
    for spec in specs:
        a, b = _norm(u @ x @ v, spec), _norm(x, spec)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))


def test_p_triangle_for_small_p():
    rng = np.random.default_rng(4)
    for p in (0.3, 0.5, 1.0):
        for _ in range(50):
            x, y = random_matrix(4, rng), random_matrix(4, rng)
            lhs = _norm(x + y, Schatten(p)) ** p
            rhs = _norm(x, Schatten(p)) ** p + _norm(y, Schatten(p)) ** p
            assert lhs <= rhs * (1.0 + 1e-12)


def test_quasi_triangle_with_modulus():
    # ||X+Y|| <= K (||X|| + ||Y||) with the modulus of concavity K of each spec
    rng = np.random.default_rng(5)
    moduli = [
        (Schatten(0.5), 2.0),
        (Schatten(1), 1.0),
        (Schatten(3), 1.0),
        (KyFan(2), 1.0),
        (PowerOf(KyFan(3), 0.5), 2.0),
        (PowerOf(Schatten(1), 0.4), 2.0 ** 1.5),
    ]
    for spec, k in moduli:
        for _ in range(30):
            x, y = random_matrix(4, rng), random_matrix(4, rng)
            assert _norm(x + y, spec) <= k * (_norm(x, spec) + _norm(y, spec)) * (
                1.0 + 1e-12
            )


def test_hardy_littlewood_polya_monotonicity():
    rng = np.random.default_rng(6)
    fully_symmetric = [Schatten(1), Schatten(2), Schatten(np.inf), KyFan(1), KyFan(3)]
    for _ in range(30):
        y = random_matrix(5, rng)
        # profile dominated after a random crossing-preserving shrink
        mu_y = hl.singular_values(y)
        mu_x = mu_y * rng.uniform(0.2, 1.0, mu_y.size)
        mu_x = np.sort(mu_x)[::-1]
        assert _submajorization_margin(mu_y, mu_x)[0] >= -SUBMAJ_TOL
        u, v = hl.haar_unitary(5, rng), hl.haar_unitary(5, rng)
        x = u @ np.diag(mu_x) @ v
        for spec in fully_symmetric:
            assert _norm(x, spec) <= _norm(y, spec) * (1.0 + 1e-10)


def test_mu_of_adjoint_and_modulus():
    rng = np.random.default_rng(7)
    x = random_matrix(5, rng)
    mu = hl.singular_values(x)
    assert np.allclose(mu, hl.singular_values(x.conj().T), atol=1e-12)
    assert np.allclose(mu, hl.singular_values(hl.abs_matrix(x)), atol=1e-10)


def test_submajorizes_examples():
    margin, worst = _submajorization_margin(np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    assert margin == -0.5 and worst == 0
    margin, worst = _submajorization_margin(np.array([2.0, 1.0]), np.array([2.0, 1.0]))
    assert margin == 0.0 and worst == 0


def test_triangle_submajorization_oracle():
    # classical triangle fact: mu(X+Y) << mu(X) + mu(Y) (entrywise sum of the
    # descending profiles)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        g1, g2 = random_matrix(4, rng), random_matrix(4, rng)
        x, y = g1 @ g1.conj().T, g2 @ g2.conj().T  # positive pair
        lhs = hl.singular_values(x + y)
        rhs = hl.singular_values(x) + hl.singular_values(y)
        assert _submajorization_margin(rhs, lhs)[0] >= -SUBMAJ_TOL


def test_least_domination_constant():
    assert least_domination_constant([2.0, 2.0], [1.0, 1.0]) == pytest.approx(0.5)
    assert least_domination_constant([1.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)
    assert least_domination_constant([0.0, 1.0], [1.0, 0.0]) == np.inf


def _domination_loop(upper, lower):
    """least_domination_constant as a loop over the partial sums: Python's
    max skips a NaN ratio, and a positive sum over one that is not gives inf."""
    cu, cl = np.cumsum(upper), np.cumsum(lower)
    c = 0.0
    for num, den in zip(cl, cu):
        if den > 0.0:
            c = max(c, num / den)
        elif num > 0.0:
            return np.inf
    return c


def test_least_domination_constant_of_a_stack_is_the_loop():
    rng = np.random.default_rng(3)
    edges = [0.0, 1.0, np.inf, np.nan]
    upper = rng.choice(edges + list(rng.random(4)), size=(4, 50, 5))
    lower = rng.choice(edges + list(rng.random(4)), size=(4, 50, 5))
    with np.errstate(all="ignore"):
        pairs = zip(upper.reshape(-1, 5), lower.reshape(-1, 5))
        want = [_domination_loop(u, lo) for u, lo in pairs]
    got = least_domination_constant(upper, lower)
    assert got.shape == (4, 50)
    assert [v.hex() for v in got.ravel().tolist()] == [float(v).hex() for v in want]
    assert least_domination_constant([1.0, 1.0], [3.0]) == 3.0  # the shorter pads with 0


def test_p_th_power_norms_do_not_overflow():
    # scaled by the largest entry, s^p stays in range at any p
    profile = np.array([1e8, 5e7, 1e3])
    for spec in (Schatten(400), PowerOf(Schatten(1), 400), PowerOf(KyFan(2), 40)):
        got = norm_of_profile(profile, spec)
        assert got == pytest.approx(1e8, rel=1e-12)
    assert norm_of_profile(profile, Schatten(2)) == pytest.approx(math.hypot(1e8, 5e7, 1e3))
    # a profile of zeros has norm 0, one with an inf entry inf, one with NaN NaN
    for spec in (Schatten(2), PowerOf(KyFan(2), 0.5)):
        assert norm_of_profile([0.0, 0.0], spec) == 0.0
        assert norm_of_profile([np.inf, 1.0], spec) == np.inf
        assert math.isnan(norm_of_profile([np.nan, 1.0], spec))
    # p = 1 is no power: the Schatten-1 norm is the plain sum
    assert norm_of_profile(profile, Schatten(1)) == float(profile.sum())


def test_parse_norm_specs():
    cases = {
        "schatten:1": Schatten(1.0),
        "schatten:inf": Schatten(np.inf),
        "kyfan:3": KyFan(3),
        "power:kyfan:2:0.5": PowerOf(KyFan(2), 0.5),
        "power:schatten:1.0:2.0": PowerOf(Schatten(1.0), 2.0),
    }
    for text, spec in cases.items():
        assert parse_norm_spec(text) == spec


def test_parse_norm_spec_errors():
    for bad in ["", "schatten", "frobenius:2", "power:weak:1:0.5", "power:power:kyfan:1:1:1"]:
        with pytest.raises(ParameterError):
            parse_norm_spec(bad)


def test_power_of_the_operator_norm():
    # S_inf is fully symmetric: its p-th power norm is the largest singular value
    spec = parse_norm_spec("power:schatten:inf:0.5")
    assert spec == PowerOf(Schatten(np.inf), 0.5)
    assert norm_of_profile([3.0, 2.0, 1.0], spec) == pytest.approx(3.0, rel=1e-15)


def test_spec_validation():
    with pytest.raises(ParameterError):
        Schatten(0.0)
    with pytest.raises(ParameterError):
        KyFan(0)
    with pytest.raises(ParameterError):
        PowerOf(Schatten(0.5), 1.0)  # base not fully symmetric
    with pytest.raises(ParameterError):
        PowerOf(KyFan(1), 0.0)


STACK_SPECS = [
    Schatten(1), Schatten(2), Schatten(1.5), Schatten(np.inf), KyFan(1), KyFan(3), KyFan(9),
    PowerOf(Schatten(1), 0.5), PowerOf(Schatten(2), 0.75),
    PowerOf(KyFan(2), 2.0), PowerOf(Schatten(np.inf), 0.3), PowerOf(Schatten(1), 1.0),
]


@pytest.mark.parametrize("n", [1, 3, 8, 9, 17, 64])
def test_norm_of_a_stack_is_the_norm_of_each_profile(n):
    # the reference is the loop over 1-D profiles, bit for bit: the stacks are
    # SVD outputs at scales from 1e-8 to 1e8, their slices and their powers
    rng = np.random.default_rng(n)
    for scale in (1e-8, 1.0, 1e8):
        m = scale * (rng.standard_normal((6, 3, n, n)) + 1j * rng.standard_normal((6, 3, n, n)))
        sv = np.linalg.svd(m, compute_uv=False)
        for stack in (sv, sv[:, 1], sv[:, 2] ** 0.7, sv[:1, 0], np.zeros((2, n))):
            for spec in STACK_SPECS:
                got = norm_of_profile(stack, spec)
                want = [norm_of_profile(s, spec) for s in stack.reshape(-1, n)]
                assert isinstance(want[0], float) and got.shape == stack.shape[:-1]
                assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want]
    assert norm_of_profile(np.zeros((4, 0)), Schatten(1)).tolist() == [0.0] * 4
    assert norm_of_profile([], KyFan(2)) == 0.0


# --- the stacked submajorization margin against the per-pair computation -----------


def _margin_loop(upper, lower):
    """The submajorization (margin, worst index) of one pair as a loop
    computes it: the gaps of the partial sums over Python's max of the two
    totals, and (0.0, 0) when that total is <= 0."""
    cu, cl = np.cumsum(upper), np.cumsum(lower)
    scale = max(float(cu[-1]), float(cl[-1]))
    if scale <= 0.0:
        return 0.0, 0
    gaps = (cu - cl) / scale
    worst = int(np.argmin(gaps))
    return float(gaps[worst]), worst


def _check_stacked_margins(upper, lower):
    """Assert that the stacked margins and worst indices of every pair of
    ``upper`` and ``lower`` (..., n) are, bit for bit, those of the loop;
    return the margins."""
    with np.errstate(all="ignore"):
        margins, worst = _submajorization_margin(upper, lower)
        pairs = zip(upper.reshape(-1, upper.shape[-1]), lower.reshape(-1, lower.shape[-1]))
        loop = [_margin_loop(u, lo) for u, lo in pairs]
    assert margins.shape == worst.shape == upper.shape[:-1]
    got = [(m.hex(), w) for m, w in zip(margins.ravel().tolist(), worst.ravel().tolist())]
    assert got == [(m.hex(), w) for m, w in loop]
    return margins


def test_stacked_margin_is_the_per_pair_margin():
    rng = np.random.default_rng(7)
    edges = [0.0, 1.0, -1.0, np.inf, np.nan]
    for n in (5, 3, 6, 1):
        upper = rng.choice(edges + list(rng.random(4)), size=(4, 60, n))
        lower = rng.choice(edges + list(rng.random(4)), size=(4, 60, n))
        upper[0, :10], lower[0, :10] = 0.0, 0.0  # zero totals
        upper[0, 10:20, 0], lower[0, 10:20, 0] = np.inf, np.inf  # inf - inf gaps
        upper[0, 20:30, 0] = np.nan  # a NaN total of upper wins the larger total
        lower[0, 30:40, 0] = np.nan  # and one of lower does not
        margins = _check_stacked_margins(upper, lower)
        assert np.isnan(margins).any() and (margins == 0.0).any() and (margins < 0.0).any()


def test_stacked_margin_of_overflowing_alt_profiles(monkeypatch):
    # p-th powers of profiles up to 1e8 overflow to inf at p = 40 and 400,
    # unless they are divided by a common scale first: every margin is
    # finite, and the stacked alt kernel keeps each pair's margin and flag
    compared = []

    def margin(upper, lower):
        compared.append((upper, lower))
        return _submajorization_margin(upper, lower)

    monkeypatch.setattr(verify, "_submajorization_margin", margin)
    config = CampaignConfig.from_dict({
        "verifier": "alt", "thetas": [0.5], "ps": [40.0, 400.0], "norms": ["schatten:1"],
        "dims": [4, 8], "trials": 40, "seed": 1,
        "ensemble": {"name": "positive_pair", "spectrum_range": [1e3, 1e8]},
    })
    entries = [verify._check_alt(None, 0.5, p, Schatten(1), None) for p in (40.0, 400.0)]
    for dim in (4, 8):
        _, stack, dec = campaign._draw(config, dim, range(config.trials))
        with np.errstate(over="raise"):
            outcomes = verify.verify_alt_stack(None, entries, stack, dec)
        assert outcomes.ok.all()
        ((upper, lower),) = compared
        compared.clear()
        margins = _check_stacked_margins(upper, lower)
        assert not np.isnan(margins).any()
        got = outcomes.constants.ravel().tolist()
        assert [v.hex() for v in got] == [v.hex() for v in margins.ravel().tolist()]
        assert (outcomes.flagged == ~(margins >= -SUBMAJ_TOL)).all()
