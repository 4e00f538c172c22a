import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import functions as F
from holderlab.errors import CapabilityError, ParameterError, SingularityError

ALL_ENTRIES = [
    F.power(0.5),
    F.power(0.3),
    F.signed_power(0.7),
    F.log1p_abs(),
    F.signed_log1p(),
    F.rational_abs(1.0),
    F.rational_signed(2.0),
    F.signed_expm1(),
    F.gauss_bump(),
    F.linear(),
]


def test_catalog_eval_values():
    assert F.power(0.5).eval(np.array([4.0]))[0] == pytest.approx(2.0)
    assert F.rational_abs(1.0).eval(np.array([1.0]))[0] == pytest.approx(0.5)
    assert F.gauss_bump().eval(np.array([0.0]))[0] == 0.0
    assert F.signed_expm1().eval(np.array([-1.0]))[0] == pytest.approx(-(math.e - 1.0))


def test_catalog_parameter_validation():
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterError):
            F.power(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            F.rational_abs(bad)
        with pytest.raises(ParameterError):
            F.rational_signed(bad)


def _derivative(f, k, x):
    """f^(k)(x), with f itself at k = 0."""
    return f.eval(x) if k == 0 else f.deriv(k, x)


@pytest.mark.parametrize("f", ALL_ENTRIES, ids=lambda f: f.name)
def test_derivatives_match_finite_differences(f):
    # order-k derivative checked against a central difference of order k-1;
    # chaining down to order 0 validates the whole ladder
    for x0 in (0.1, 1.0, 10.0, -0.1, -1.0, -10.0):
        for k in range(1, f.max_order + 1):
            h = 1e-6 * max(1.0, abs(x0))
            lo = _derivative(f, k - 1, np.array([x0 - h]))[0]
            hi = _derivative(f, k - 1, np.array([x0 + h]))[0]
            fd = (hi - lo) / (2.0 * h)
            got = f.deriv(k, np.array([x0]))[0]
            assert got == pytest.approx(fd, rel=2e-6, abs=1e-9 * max(1.0, abs(fd)))


SIGN_POINTS = np.concatenate(
    [
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324],
        np.random.default_rng(3).standard_normal(500),
        np.random.default_rng(4).uniform(-1e300, 1e300, 500),
    ]
)


@pytest.mark.parametrize("k", range(1, 8))
def test_sign_power_is_the_float_power_bit_for_bit(k):
    want = np.sign(SIGN_POINTS) ** k
    assert F._unit_power(np.sign(SIGN_POINTS), k).tobytes() == want.tobytes()
    for x in (0.0, -0.0, np.nan, -2.5, 3.0):
        assert np.asarray(F._unit_power(np.sign(np.float64(x)), k)).tobytes() == np.asarray(
            np.sign(np.float64(x)) ** k
        ).tobytes()


LADDER_ENTRIES = ALL_ENTRIES + [
    F.dilate_function(f, r) for f in ALL_ENTRIES for r in (2.0**-3, 1.0, 4.0, 2.0**7, 0.3)
]
LADDER_POINTS = np.concatenate(
    [
        F._GRID_X[1.0],
        F._GRID_X[-1.0],
        np.random.default_rng(5).standard_normal(300) * 10.0 ** np.arange(-6, 6).repeat(25),
        [0.0, -0.0, np.inf, -np.inf, np.nan],
    ]
)


@pytest.mark.parametrize("f", LADDER_ENTRIES, ids=lambda f: f.name)
def test_derivatives_are_the_per_order_derivs_bit_for_bit(f):
    # every builder but linear shares work across orders, and so does a dilation
    assert hasattr(f.deriv, "ladder") == (f.name != "linear")
    with np.errstate(all="ignore"):
        for top in range(1, f.max_order + 1):
            got = f.derivatives(top, LADDER_POINTS)
            want = [f.deriv(k, LADDER_POINTS) for k in range(1, top + 1)]
            assert [d.tobytes() for d in got] == [d.tobytes() for d in want], top
    with pytest.raises(CapabilityError, match="derivative order 7 exceeds max_order 6"):
        f.derivatives(f.max_order + 1, LADDER_POINTS)


def test_derivatives_of_a_hand_built_deriv_call_it_per_order():
    f = F.log1p_abs()
    calls = []

    def deriv(k, x):
        calls.append(k)
        return f.deriv(k, x)

    # a deriv replaced on a catalog entry drops its ladder with it
    hand_built = dataclasses.replace(f, deriv=deriv)
    for g in (hand_built, F.dilate_function(hand_built, 2.0)):
        calls.clear()
        got = g.derivatives(4, F._GRID_X[1.0])
        assert calls == [1, 2, 3, 4]
        want = [g.deriv(k, F._GRID_X[1.0]) for k in range(1, 5)]
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


def test_power_weighted_derivative_is_constant():
    # |x|^{k - theta} |f^(k)(x)| for the power function is |theta (theta-1)...|
    f = F.power(0.5)
    for k in range(3):
        want = abs(np.prod([0.5 - j for j in range(k)])) if k else 1.0
        for x in (0.01, 1.0, 100.0, -5.0):
            got = abs(x) ** (k - 0.5) * abs(_derivative(f, k, np.array([x]))[0])
            assert got == pytest.approx(want, rel=1e-10)


def test_seminorm_power_exact():
    est = F.seminorm(F.power(0.5), 2, 0.5)
    assert np.abs(est.per_order - np.array([1.0, 0.5, 0.25])).max() <= 1e-12
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_seminorm_linear():
    est = F.seminorm(F.linear(), 1, 1.0)
    assert est.value == pytest.approx(1.0, rel=1e-10)


def _grid_only(f):
    """f without its exact_order_sup, so that seminorm estimates it on the grid."""
    return dataclasses.replace(f, exact_order_sup=None)


def test_seminorm_grid_matches_analytic_sup():
    # the grid estimate of entries carrying closed-form order sups agrees with them
    for f, theta in [(F.power(0.4), 0.4), (F.signed_power(0.6), 0.6)]:
        est = F.seminorm(_grid_only(f), 3, theta)
        assert est.grid == F.SEMINORM_GRID
        for k in range(4):
            assert est.per_order[k] == pytest.approx(f.exact_order_sup(k, theta), rel=1e-10)


@pytest.mark.parametrize(
    "f", [F.power(0.5), F.power(0.3), F.signed_power(0.7), F.linear()], ids=lambda f: f.name
)
def test_seminorm_of_a_homogeneous_f_at_its_degree_is_the_closed_form(f):
    theta = f.theta_hint
    for d in range(f.max_order + 1):
        est = F.seminorm(f, d, theta)
        exact = [f.exact_order_sup(k, theta) for k in range(d + 1)]
        assert est.per_order.tolist() == exact and est.value == max(exact)
        assert est.edge == () and est.grid == F.SEMINORM_EXACT
    assert F.seminorm(F.power(0.5), 4, 0.5).value == 1.0  # the grid reads 1.0000000000000002


def test_seminorm_of_a_homogeneous_f_off_its_degree_stays_the_grid_estimate():
    # spower:0.5 at 1/theta for theta 1.5 and 3 (an inverse campaign's cells):
    # every order sits on a grid edge, and the estimate keeps these bits until
    # the seminorm refuses an unbounded order
    pinned = {
        2.0 / 3.0: ["0x1.58b5a51868c60p+4", "0x1.58b5a51868c60p+3", "0x1.58b5a51868c53p+2",
                    "0x1.02883bd24e93ep+3", "0x1.432a4ac6e238ep+4"],
        1.0 / 3.0: ["0x1.58b5a51868c66p+4", "0x1.58b5a51868c6cp+3", "0x1.58b5a51868c6cp+2",
                    "0x1.02883bd24e93fp+3", "0x1.432a4ac6e238ep+4"],
    }
    for theta, per_order in pinned.items():
        est = F.seminorm(F.signed_power(0.5), 4, theta)
        assert [x.hex() for x in est.per_order.tolist()] == per_order
        assert est.value == float.fromhex(per_order[0])  # 21.54434690031883...
        assert est.edge == (0, 1, 2, 3, 4) and est.grid == F.SEMINORM_GRID


def test_seminorm_finite_for_non_homogeneous_entries():
    entries = [F.log1p_abs(), F.signed_log1p(), F.rational_abs(1.0),
               F.rational_signed(0.5), F.gauss_bump()]
    for f in entries:
        for theta in (0.25, 0.5, 0.9):
            est = F.seminorm(f, 4, theta)
            assert np.isfinite(est.value) and est.value > 0.0


def test_seminorm_monotone_in_d():
    f = F.log1p_abs()
    vals = [F.seminorm(f, d, 0.5).value for d in range(4)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_seminorm_dilation_law_homogeneous():
    # dilation by r scales the seminorm by r^-theta
    for f, theta in [(F.power(0.5), 0.5), (F.signed_power(0.7), 0.7)]:
        base = F.seminorm(f, 2, theta).value
        for r in (0.25, 3.0):
            scaled = F.seminorm(F.dilate_function(f, r), 2, theta).value
            assert scaled == pytest.approx(base / r**theta, rel=1e-8)


def test_seminorm_infinite_for_exponential():
    assert F.seminorm(F.signed_expm1(), 0, 0.5).value == np.inf


def test_seminorm_capability_error():
    with pytest.raises(CapabilityError):
        F.seminorm(F.power(0.5), 7, 0.5)


# --- the seminorm's zoom against per-search loops ----------------------------------


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _ref_weighted(f, k, theta, x):
    with np.errstate(over="ignore", invalid="ignore"):
        fx = f.eval(x) if k == 0 else f.deriv(k, x)
        return np.abs(x) ** (k - theta) * np.abs(fx)


def _ref_golden_max(f, k, theta, sign, u_lo, u_hi):
    """One 60-step golden-section search, as seminorm refined a grid maximum
    before its zoom: the accuracy oracle."""

    def g(u):
        return float(_ref_weighted(f, k, theta, np.array([sign * math.exp(u)]))[0])

    a, b = u_lo, u_hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(60):
        if gc < gd:
            a, c, gc = c, d, gd
            d = a + GOLDEN * (b - a)
            gd = g(d)
        else:
            b, d, gd = d, c, gc
            c = b - GOLDEN * (b - a)
            gc = g(c)
    return max(gc, gd)


def _ref_zoom_max(f, k, theta, sign, u_lo, u_hi):
    """One zoom search alone, its own _weighted call per round."""
    best = 0.0
    for _ in range(F.ZOOM_ROUNDS):
        u = u_lo + (u_hi - u_lo) * np.linspace(0.0, 1.0, F.ZOOM_POINTS + 1)
        w = _ref_weighted(f, k, theta, sign * np.exp(u))
        w = np.where(np.isnan(w), 0.0, w)
        i = int(np.argmax(w))
        best = max(best, float(w[i]))
        u_lo, u_hi = u[max(i - 1, 0)], u[min(i + 1, F.ZOOM_POINTS)]
    return best


def _ref_seminorm(f, d, theta, refine=_ref_golden_max):
    """seminorm with one ``refine`` search per (order, sign), run in turn;
    also returns each order's grid maximum."""
    us = np.log(np.logspace(-8.0, 8.0, 2048))
    per_order, grid_max = np.zeros(d + 1), np.zeros(d + 1)
    for k in range(d + 1):
        best = 0.0
        for sign in (1.0, -1.0):
            w = _ref_weighted(f, k, theta, sign * np.exp(us))
            w = np.where(np.isnan(w), 0.0, w)
            i = int(np.argmax(w))
            top = float(w[i])
            grid_max[k] = max(grid_max[k], top)
            if np.isinf(top):
                best = np.inf
                break
            if 0 < i < us.size - 1:
                top = max(top, refine(f, k, theta, sign, us[i - 1], us[i + 1]))
            best = max(best, top)
        per_order[k] = best
    return float(np.max(per_order)), per_order, grid_max


def _speckled_bump_eval(x):
    """exp(-log(|x|)^2), NaN at every x whose last mantissa bit is set, so
    searches compare NaN with numbers and end on NaN at c, at d or at both."""
    u = np.log(np.abs(x))
    return np.where(x.view(np.int64) & 1 == 1, np.nan, np.exp(-u * u))


def _left_overflow_eval(x):
    """exp(-log(|x|)^2) for x > 0 (an interior grid maximum), e^|x| for x < 0
    (an infinite one on the second sign)."""
    return np.where(x < 0.0, np.exp(np.abs(x)), np.exp(-np.log(np.abs(x)) ** 2))


def _edge_function(name, ev):
    return F.ScalarFunction(name=name, eval=ev, deriv=lambda k, x: ev(x), max_order=2)


# the catalog, with each homogeneous entry at an exponent of SEMINORM_THETAS
# (where its weighted derivative is flat) and estimated on the grid there, a
# polynomial, two dilations, and
# two functions for the NaN and the infinite grid maximum of the second sign
SEMINORM_ENTRIES = [
    _grid_only(F.power(0.5)),
    _grid_only(F.power(0.25)),
    _grid_only(F.signed_power(0.5)),
    _grid_only(F.signed_power(2.0 / 3.0)),
    _grid_only(F.signed_power(0.75)),
    F.log1p_abs(),
    F.signed_log1p(),
    F.rational_abs(1.0),
    F.rational_signed(2.0),
    F.signed_expm1(),
    F.gauss_bump(),
    _grid_only(F.linear()),
    F.polynomial([1.0, -2.0, 0.5, 0.25]),
    F.dilate_function(F.gauss_bump(), 0.01),
    F.dilate_function(F.signed_power(0.5), 40.0),
    _edge_function("speckled_bump", _speckled_bump_eval),
    _edge_function("left_overflow", _left_overflow_eval),
]
SEMINORM_THETAS = (0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0)


def _assert_seminorm_is_reference(f, d, theta):
    value, per_order, _ = _ref_seminorm(f, d, theta, refine=_ref_zoom_max)
    est = F.seminorm(f, d, theta)
    assert est.per_order.tobytes() == per_order.tobytes(), (f.name, d, theta)
    assert np.asarray(est.value).tobytes() == np.asarray(value).tobytes(), (f.name, d, theta)


@pytest.mark.parametrize("f", SEMINORM_ENTRIES, ids=lambda f: f.name)
def test_seminorm_equals_the_per_search_loop_bit_for_bit(f):
    # the searches of one order share a _weighted call per round: each reads
    # what it reads when it runs alone
    for theta in SEMINORM_THETAS:
        for d in range(f.max_order + 1):
            _assert_seminorm_is_reference(f, d, theta)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SEMINORM_ENTRIES),
    st.integers(0, F.MAX_ORDER),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1e-3, 1e3),
)
def test_seminorm_of_dilations_equals_the_per_search_loop(f, d, theta, r):
    _assert_seminorm_is_reference(F.dilate_function(f, r), min(d, f.max_order), theta)


# the golden search compares NaN with numbers on speckled_bump, which steers it
GOLDEN_ENTRIES = [f for f in SEMINORM_ENTRIES if f.name != "speckled_bump"]


def _assert_seminorm_is_golden_within_ulps(f, theta):
    d = f.max_order
    _, per_order, grid_max = _ref_seminorm(f, d, theta)
    est = F.seminorm(f, d, theta).per_order
    assert np.all(est >= grid_max), (f.name, theta)
    fin = np.isfinite(per_order)
    assert np.array_equal(np.isfinite(est), fin), (f.name, theta)
    assert np.all(np.abs(est[fin] - per_order[fin]) <= 4e-15 * per_order[fin]), (f.name, theta)


@pytest.mark.parametrize("f", GOLDEN_ENTRIES, ids=lambda f: f.name)
def test_seminorm_is_the_golden_search_within_ulps(f):
    for theta in SEMINORM_THETAS:
        _assert_seminorm_is_golden_within_ulps(f, theta)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GOLDEN_ENTRIES), st.sampled_from(SEMINORM_THETAS), st.floats(1e-3, 1e3))
def test_seminorm_of_dilations_is_the_golden_search_within_ulps(f, theta, r):
    _assert_seminorm_is_golden_within_ulps(F.dilate_function(f, r), theta)


def test_seminorm_reads_nan_as_zero_and_keeps_an_infinite_order():
    speckled, left_overflow = SEMINORM_ENTRIES[-2:]
    for theta in SEMINORM_THETAS:
        _, _, grid_max = _ref_seminorm(speckled, 2, theta)
        est = F.seminorm(speckled, 2, theta).per_order
        assert np.all(np.isfinite(est)) and np.all(est >= grid_max)
        assert F.seminorm(left_overflow, 2, theta).per_order.tolist() == [np.inf] * 3


def test_seminorm_names_its_edge_orders():
    # power:0.5 at theta 0.75 grows toward x = 0 at every order; log1p at 0.5
    # peaks inside the grid at every order
    assert F.seminorm(F.power(0.5), 4, 0.75).edge == (0, 1, 2, 3, 4)
    assert F.seminorm(F.log1p_abs(), 4, 0.5).edge == ()
    assert F.seminorm(F.signed_expm1(), 2, 0.5).edge == ()


def _counted(f):
    """f with its eval and deriv calls counted in ``calls``, and whether any
    of them saw a negative x in ``calls["negative"]``."""
    calls = {"eval": 0, "deriv": 0, "negative": False}

    def ev(x):
        calls["eval"] += 1
        calls["negative"] |= bool(np.any(x < 0.0))
        return f.eval(x)

    def dv(k, x):
        calls["deriv"] += 1
        calls["negative"] |= bool(np.any(x < 0.0))
        return f.deriv(k, x)

    return F.ScalarFunction(name=f.name, eval=ev, deriv=dv, even_or_odd=f.even_or_odd), calls


def _both_signs(f):
    return dataclasses.replace(f, even_or_odd=False)


def test_seminorm_evaluates_each_order_once_per_zoom_round():
    # spower:0.5 at its own exponent, without its closed form (_counted drops
    # exact_order_sup): every order and sign is refined, and each order is
    # evaluated on its grid of each sign and once per round
    f, calls = _counted(_both_signs(F.signed_power(0.5)))
    F.seminorm(f, 4, 0.5)
    R = F.ZOOM_ROUNDS
    assert calls == {"eval": 2 + R, "deriv": 4 * (2 + R), "negative": True}
    # as an odd function, on the positive sign alone
    f, calls = _counted(F.signed_power(0.5))
    F.seminorm(f, 4, 0.5)
    assert calls == {"eval": 1 + R, "deriv": 4 * (1 + R), "negative": False}
    # an infinite grid maximum of the first sign skips the second, and refinement
    f, calls = _counted(_both_signs(F.signed_expm1()))
    assert F.seminorm(f, 3, 0.5).per_order.tolist() == [np.inf] * 4
    assert calls == {"eval": 1, "deriv": 3, "negative": False}


# every builder that promises |f^(k)(-x)| = |f^(k)(x)|, and dilations of them
EVEN_OR_ODD = ALL_ENTRIES + [
    F.dilate_function(F.gauss_bump(), 0.01),
    F.dilate_function(F.signed_power(0.5), 40.0),
    F.dilate_function(F.rational_signed(2.0), 3.7),
    F.dilate_function(F.log1p_abs(), 1e-3),
]


@pytest.mark.parametrize("f", EVEN_OR_ODD, ids=lambda f: f.name)
def test_even_or_odd_weighted_derivatives_are_symmetric_bit_for_bit(f):
    assert f.even_or_odd
    rng = np.random.default_rng(23)
    # the grid, and points of zoom brackets: exp of uniform log-abscissae
    zoom = np.exp(rng.uniform(F._GRID_U[0], F._GRID_U[-1], 4096))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (F._GRID_X[1.0], zoom):
            for theta in SEMINORM_THETAS:
                for k in range(f.max_order + 1):
                    plus = F._weighted(f, k, theta, x)
                    minus = F._weighted(f, k, theta, -x)
                    assert plus.tobytes() == minus.tobytes(), (f.name, k, theta)


@pytest.mark.parametrize("f", SEMINORM_ENTRIES, ids=lambda f: f.name)
def test_seminorm_of_one_sign_is_the_seminorm_of_both(f):
    for theta in SEMINORM_THETAS:
        for d in range(f.max_order + 1):
            one, both = F.seminorm(f, d, theta), F.seminorm(_both_signs(f), d, theta)
            assert np.asarray(one.value).tobytes() == np.asarray(both.value).tobytes()
            assert one.per_order.tobytes() == both.per_order.tobytes(), (f.name, d, theta)
            assert one.edge == both.edge and one.grid == both.grid


def test_polynomial_and_hand_built_functions_run_both_signs():
    for f in (F.polynomial([1.0, -2.0, 0.5, 0.25]), *SEMINORM_ENTRIES[-2:]):
        assert not f.even_or_odd
        assert not F.dilate_function(f, 2.0).even_or_odd
        counted, calls = _counted(f)
        F.seminorm(counted, 2, 0.5)
        assert calls["negative"], f.name


def _holder_bound(f, theta):
    """(2/theta) times the first-order seminorm: a Holder constant of f valid
    for every pair of points."""
    return (2.0 / theta) * F.seminorm(f, 1, theta).value


def test_holder_bound_values():
    assert _holder_bound(F.power(0.5), 0.5) == pytest.approx(4.0, rel=1e-10)
    assert _holder_bound(F.linear(), 1.0) == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize(
    "f,theta",
    [
        (F.power(0.5), 0.5),
        (F.signed_power(0.7), 0.7),
        (F.log1p_abs(), 0.5),
        (F.rational_signed(1.0), 0.4),
        (F.gauss_bump(), 0.6),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_holder_bound_never_violated(f, theta):
    bound = _holder_bound(f, theta)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-10, 10, 4000)
    ys = rng.uniform(-10, 10, 4000)
    gaps = np.abs(f.eval(xs) - f.eval(ys))
    assert np.all(gaps <= bound * np.abs(xs - ys) ** theta * (1.0 + 1e-8) + 1e-300)


def test_divided_difference_values():
    sq = F.polynomial([0.0, 0.0, 1.0])
    assert F.divided_difference_grid(sq, 1.0, 3.0) == pytest.approx(4.0)
    f = F.power(0.5)
    assert F.divided_difference_grid(f, 4.0, 4.0) == pytest.approx(0.25)
    got = F.divided_difference_grid(f, 1.0, 1.0 + 1e-14)
    assert got.shape == () and got == pytest.approx(0.5, rel=1e-6)


def test_divided_difference_symmetry_and_mean_value():
    f = F.log1p_abs()
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = rng.uniform(0.1, 5.0, 2)
        a = F.divided_difference_grid(f, x, y)
        assert a == F.divided_difference_grid(f, y, x)
        lo, hi = min(x, y), max(x, y)
        grid = np.linspace(lo, hi, 101)
        sup = np.abs(f.deriv(1, grid)).max()
        assert abs(a) <= sup * (1.0 + 1e-9)


def test_divided_difference_singularity_at_zero():
    with pytest.raises(SingularityError):
        F.divided_difference_grid(F.power(0.5), 0.0, 0.0)
    # functions differentiable at zero are fine
    assert F.divided_difference_grid(F.signed_log1p(), 0.0, 0.0) == pytest.approx(1.0)


def test_d_of_p():
    assert F.d_of_p(1.0) == 4
    assert F.d_of_p(2.0) == 4
    assert F.d_of_p(0.5) == 5
    assert F.d_of_p(1.0 / 3.0) == 6
    with pytest.raises(ParameterError):
        F.d_of_p(0.0)


def test_scalar_sum_direct_oracle():
    theta, q, alpha = 0.5, 1.0, 1.0
    res = F.scalar_sum_555(theta, q, alpha)
    # independent truncated summation over a generous fixed window
    direct = sum(
        2.0 ** (q * l * (1 - theta)) * min(alpha, 2.0 ** (1 - l)) ** q
        for l in range(-200, 201)
    )
    assert res.lhs == pytest.approx(direct, rel=1e-12)
    assert res.lhs <= res.rhs_constant * alpha ** (theta * q)
    assert res.tail_bound < 1e-12


def test_scalar_sum_alpha_scaling():
    theta, q = 0.3, 1.0
    r1 = F.scalar_sum_555(theta, q, 1.0)
    r2 = F.scalar_sum_555(theta, q, 2.0)
    growth = r2.lhs / r1.lhs
    # comparable to the homogeneous rate within the proof's constant factor
    assert growth == pytest.approx(2.0 ** (theta * q), rel=0.75)


def test_scalar_sum_tail_ratio():
    theta, q, alpha = 0.5, 1.0, 1.0
    # far above the crossover index the terms decay by exactly 2^{-q theta}
    def term(l):
        return 2.0 ** (q * l * (1 - theta)) * min(alpha, 2.0 ** (1 - l)) ** q

    k = 1 - math.log2(alpha)
    for l in range(int(k) + 5, int(k) + 15):
        assert term(l + 1) / term(l) == pytest.approx(2.0 ** (-q * theta), rel=1e-12)


def test_scalar_sum_parameter_errors():
    for bad in [(-0.1, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 0.0)]:
        with pytest.raises(ParameterError):
            F.scalar_sum_555(*bad)


def test_parse_function_spec():
    f = F.parse_function_spec("power:0.5")
    assert f.name == "power:0.5"
    assert F.parse_function_spec("log1p").name == "log1p"
    with pytest.raises(ParameterError):
        F.parse_function_spec("nope")
    with pytest.raises(ParameterError):
        F.parse_function_spec("power")
