"""Scalar test functions with analytic derivatives, seminorm estimation over
|x|-weighted grids, divided differences, and related scalar machinery.

Catalog entries carry closed-form derivatives up to order ``MAX_ORDER`` so no
numerical differentiation happens inside the library; finite differences are
reserved for test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ParameterError, SingularityError

MAX_ORDER = 6
DD_SWITCH = 1e-8


@dataclass(frozen=True)
class ScalarFunction:
    """A real function f with vectorized evaluation and analytic derivatives.

    ``deriv(k, x)`` is defined for 1 <= k <= max_order and x != 0, and
    ``derivatives(top, x)`` gives the orders 1..top at once;
    ``derivative_at_zero`` is the two-sided f'(0) when it exists, else None.
    ``theta_hint``, when present, is the degree theta of a homogeneous f:
    f(r x) = r^theta f(x) for r > 0.  ``exact_order_sup(k)``, when present,
    returns the analytic value of sup_{x != 0} |x|^{k - theta_hint} |f^(k)(x)|,
    which ``seminorm`` takes at theta == ``theta_hint``.
    ``even_or_odd`` promises |f^(k)(-x)| = |f^(k)(x)| bit for bit for every
    0 <= k <= max_order, so that ``seminorm`` evaluates x > 0 only.
    ``inverse``, when present, is f^{-1} in closed form on the branch where f
    increases: the whole line for an odd f, x >= 0 for an even one.  It is
    NaN where y has no preimage there: outside f's range, or below f(0) for
    an even f.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[int, np.ndarray], np.ndarray]
    max_order: int = MAX_ORDER
    theta_hint: Optional[float] = None
    derivative_at_zero: Optional[float] = None
    exact_order_sup: Optional[Callable[[int], float]] = None
    even_or_odd: bool = False
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def derivatives(self, top: int, x) -> list:
        """[deriv(k, x) for k in 1..top], bit for bit.  A deriv that carries a
        ``ladder`` (one made by _laddered or dilate_function) computes the part
        its orders share once; any other deriv is called per order."""
        if top > self.max_order:
            raise CapabilityError(
                f"{self.name}: derivative order {top} exceeds max_order {self.max_order}"
            )
        ladder = getattr(self.deriv, "ladder", None)
        if ladder is None:
            return [self.deriv(k, x) for k in range(1, top + 1)]
        return ladder(top, x)


def _laddered(shared, order):
    """The deriv of a builder whose orders share work: ``order(k, parts)`` is
    f^(k) from ``parts = shared(x)``.  A per-order call computes its parts;
    its ``ladder(top, x)`` computes them once for the orders 1..top."""

    def deriv(k, x):
        return order(k, shared(x))

    def ladder(top, x):
        parts = shared(x)
        return [order(k, parts) for k in range(1, top + 1)]

    deriv.ladder = ladder
    return deriv


def _unit_power(s, k: int) -> np.ndarray:
    """s ** k for k >= 1 and s = np.sign(x), bit for bit (NaN and -0.0
    included), without a float power: s itself for odd k, s * s for even k."""
    return s if k % 2 else s * s


def _branch_inverse(g, odd: bool):
    """The ``inverse`` of an even or odd f from g, the inverse of f on x >= 0
    as a map of y >= 0: sgn(y) g(|y|) when ``odd``, else g(y), NaN below 0."""

    def inverse(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):  # g may overflow or leave its range
            if odd:
                return np.sign(y) * g(np.abs(y))
            return np.where(y >= 0.0, g(np.abs(y)), np.nan)

    return inverse


def _falling(theta: float, k: int) -> float:
    """theta (theta-1) ... (theta-k+1)."""
    out = 1.0
    for j in range(k):
        out *= theta - j
    return out


# --- catalog -----------------------------------------------------------------


def _power(theta: float, odd: bool) -> ScalarFunction:
    """|t|^theta, or sgn(t)|t|^theta when ``odd``, theta in (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"power exponent must lie in (0,1), got {theta}")

    def ev(x):
        return np.sign(x) * np.abs(x) ** theta if odd else np.abs(x) ** theta

    def dv(k, parts):
        a, s = parts  # |x|, sign(x)
        return _falling(theta, k) * a ** (theta - k) * _unit_power(s, k + odd)

    return ScalarFunction(
        name=f"{'s' * odd}power:{theta}",
        eval=ev,
        deriv=_laddered(lambda x: (np.abs(x), np.sign(x)), dv),
        theta_hint=theta,
        derivative_at_zero=None,
        exact_order_sup=lambda k: abs(_falling(theta, k)),
        even_or_odd=True,
        inverse=_branch_inverse(lambda a: a ** (1.0 / theta), odd),
    )


def power(theta: float) -> ScalarFunction:
    """|t|^theta, theta in (0, 1)."""
    return _power(theta, False)


def signed_power(theta: float) -> ScalarFunction:
    """sgn(t)|t|^theta, theta in (0, 1)."""
    return _power(theta, True)


def _log1p(odd: bool) -> ScalarFunction:
    """log(1 + |t|), or sgn(t) log(1 + |t|) when ``odd``."""

    def ev(x):
        return np.sign(x) * np.log1p(np.abs(x)) if odd else np.log1p(np.abs(x))

    def dv(k, parts):
        q, s = parts  # 1 + |x|, sign(x)
        return (-1.0) ** (k - 1) * math.factorial(k - 1) / q ** k * _unit_power(s, k + odd)

    return ScalarFunction(
        name=f"{'s' * odd}log1p", eval=ev,
        deriv=_laddered(lambda x: (1.0 + np.abs(x), np.sign(x)), dv),
        derivative_at_zero=1.0 if odd else None,
        even_or_odd=True,
        inverse=_branch_inverse(np.expm1, odd),
    )


def log1p_abs() -> ScalarFunction:
    """log(1 + |t|)."""
    return _log1p(False)


def signed_log1p() -> ScalarFunction:
    """sgn(t) log(1 + |t|); inverse of sgn(t)(e^|t| - 1)."""
    return _log1p(True)


def _rational(r: float, odd: bool) -> ScalarFunction:
    """|t| / (r + |t|), or t / (r + |t|) when ``odd``, 0 < r < inf."""
    if not 0.0 < r < math.inf:
        raise ParameterError(f"rational scale must be positive and finite, got {r}")

    def ev(x):
        return (x if odd else np.abs(x)) / (r + np.abs(x))

    def dv(k, parts):
        q, s = parts  # r + |x|, sign(x)
        c = (-1.0) ** (k + 1) * r * math.factorial(k)
        return c / q ** (k + 1) * _unit_power(s, k + odd)

    return ScalarFunction(
        name=f"{'s' * odd}rational:{r}", eval=ev,
        deriv=_laddered(lambda x: (r + np.abs(x), np.sign(x)), dv),
        derivative_at_zero=1.0 / r if odd else None, even_or_odd=True,
        inverse=_branch_inverse(lambda a: np.where(a < 1.0, r * a / (1.0 - a), np.nan), odd),
    )


def rational_abs(r: float) -> ScalarFunction:
    """|t| / (r + |t|), 0 < r < inf."""
    return _rational(r, False)


def rational_signed(r: float) -> ScalarFunction:
    """t / (r + |t|), 0 < r < inf."""
    return _rational(r, True)


def signed_expm1() -> ScalarFunction:
    """sgn(t)(e^|t| - 1).  Not theta-Holder on the line (its weighted
    seminorms are infinite); present as the inverse map for the reverse
    inequalities."""

    def ev(x):
        return np.sign(x) * np.expm1(np.abs(x))

    def dv(k, parts):
        e, s = parts  # exp(|x|), sign(x)
        return e * _unit_power(s, k + 1)

    return ScalarFunction(
        name="sexpm1", eval=ev,
        deriv=_laddered(lambda x: (np.exp(np.abs(x)), np.sign(x)), dv),
        derivative_at_zero=1.0, even_or_odd=True,
    )


def gauss_bump() -> ScalarFunction:
    """t exp(-t^2): a rapidly decaying smooth function vanishing at 0."""
    # d^k/dx^k (x e^{-x^2}) = P_k(x) e^{-x^2} with P_{k+1} = P_k' - 2x P_k.
    polys = [np.polynomial.Polynomial([0.0, 1.0])]
    for _ in range(MAX_ORDER):
        pk = polys[-1]
        polys.append(pk.deriv() - np.polynomial.Polynomial([0.0, 2.0]) * pk)

    def ev(x):
        return x * np.exp(-np.asarray(x, dtype=float) ** 2)

    def dv(k, parts):
        x, g = parts  # x, exp(-x^2)
        return polys[k](x) * g

    return ScalarFunction(
        name="gauss", eval=ev,
        deriv=_laddered(lambda x: (x, np.exp(-np.asarray(x, dtype=float) ** 2)), dv),
        derivative_at_zero=1.0, even_or_odd=True,
    )


def linear() -> ScalarFunction:
    def ev(x):
        return np.asarray(x, dtype=float)

    def dv(k, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if k == 1 else np.zeros_like(x)

    return ScalarFunction(
        name="linear",
        eval=ev,
        deriv=dv,
        theta_hint=1.0,
        derivative_at_zero=1.0,
        exact_order_sup=lambda k: 1.0 if k <= 1 else 0.0,
        even_or_odd=True,
        inverse=ev,
    )


def polynomial(coeffs) -> ScalarFunction:
    """Polynomial with coefficients low to high."""
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    derivs = [p]
    for _ in range(MAX_ORDER):
        derivs.append(derivs[-1].deriv())

    def ev(x):
        return p(np.asarray(x, dtype=float))

    def dv(k, x):
        return derivs[k](np.asarray(x, dtype=float))

    c1 = float(p.deriv()(0.0))
    return ScalarFunction(
        name=f"poly:{list(np.asarray(coeffs, dtype=float))}",
        eval=ev,
        deriv=dv,
        derivative_at_zero=c1,
    )


def dilate_function(f: ScalarFunction, r: float) -> ScalarFunction:
    """The dilation x -> f(x / r), r > 0."""
    if not r > 0:
        raise ParameterError(f"dilation scale must be positive, got {r}")

    def ev(x):
        return f.eval(np.asarray(x, dtype=float) / r)

    def scaled(k, d):  # the k-th derivative of x -> f(x / r) from d = f^(k)(x / r)
        return d / r ** k

    def dv(k, x):
        return scaled(k, f.deriv(k, np.asarray(x, dtype=float) / r))

    def ladder(top, x):
        ds = f.derivatives(top, np.asarray(x, dtype=float) / r)
        return [scaled(k, d) for k, d in enumerate(ds, 1)]

    dv.ladder = ladder

    dz = None if f.derivative_at_zero is None else f.derivative_at_zero / r
    return ScalarFunction(
        name=f"dilate:{r}:{f.name}",
        eval=ev,
        deriv=dv,
        max_order=f.max_order,
        theta_hint=f.theta_hint,
        derivative_at_zero=dz,
        even_or_odd=f.even_or_odd,
    )


_CATALOG = {
    "power": (power, 1),
    "spower": (signed_power, 1),
    "log1p": (log1p_abs, 0),
    "slog1p": (signed_log1p, 0),
    "rational": (rational_abs, 1),
    "srational": (rational_signed, 1),
    "sexpm1": (signed_expm1, 0),
    "gauss": (gauss_bump, 0),
    "linear": (linear, 0),
}


def parse_function_spec(text: str) -> ScalarFunction:
    """Parse e.g. "power:0.5", "log1p", "rational:1"."""
    tokens = text.strip().split(":")
    name = tokens[0].lower()
    if name not in _CATALOG:
        raise ParameterError(
            f"unknown function {name!r}; known: {sorted(_CATALOG)}"
        )
    ctor, nargs = _CATALOG[name]
    args = tokens[1:]
    if len(args) != nargs:
        raise ParameterError(
            f"function {name!r} takes {nargs} parameter(s), got {len(args)}"
        )
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise ParameterError(f"function {name!r} takes numbers, got {args}") from None
    return ctor(*values)


# --- seminorm estimation -----------------------------------------------------


# the seminorm grid: SEMINORM_POINTS log-spaced points per sign on
# [SEMINORM_X_MIN, SEMINORM_X_MAX]; each interior grid maximum is refined in
# ZOOM_ROUNDS rounds, each sampling its log bracket at ZOOM_POINTS + 1 points
SEMINORM_POINTS = 2048
SEMINORM_X_MIN = 1e-8
SEMINORM_X_MAX = 1e8
ZOOM_POINTS = 64
ZOOM_ROUNDS = 8
SEMINORM_GRID = (
    f"logspace[{SEMINORM_X_MIN:g},{SEMINORM_X_MAX:g}]x{SEMINORM_POINTS}"
    f"/sign+zoom{ZOOM_POINTS}x{ZOOM_ROUNDS}"
)
# the grid of a seminorm taken from exact_order_sup
SEMINORM_EXACT = "exact"
# the grid's log-abscissae u, and its points sign * exp(u) of each sign
_GRID_U = np.log(
    np.logspace(math.log10(SEMINORM_X_MIN), math.log10(SEMINORM_X_MAX), SEMINORM_POINTS)
)
_GRID_X = {1.0: np.exp(_GRID_U), -1.0: -np.exp(_GRID_U)}
_ZOOM_T = np.linspace(0.0, 1.0, ZOOM_POINTS + 1)


@dataclass(frozen=True)
class SeminormEstimate:
    """``edge`` holds the orders whose value is a finite grid maximum on a
    grid end, which no refinement reaches past."""

    value: float
    per_order: np.ndarray
    grid: str
    edge: tuple


def _weighted(f: ScalarFunction, k: int, theta: float, x: np.ndarray) -> np.ndarray:
    """|x|^{k - theta} |f^(k)(x)| with NaN read as 0; callers silence overflow
    and invalid values."""
    fx = f.eval(x) if k == 0 else f.deriv(k, x)
    w = np.abs(x) ** (k - theta) * np.abs(fx)
    return np.where(np.isnan(w), 0.0, w)


def _zoom(f, theta, searches) -> np.ndarray:
    """The largest weighted derivative seen by each search (k, sign, u_lo,
    u_hi) in ZOOM_ROUNDS rounds.  A round samples each log bracket at
    ZOOM_POINTS + 1 even points, one _weighted call per order, and narrows
    the bracket to the two neighbours of its argmax."""
    orders = {}  # k -> the searches of order k
    for s, (k, _, _, _) in enumerate(searches):
        orders.setdefault(k, []).append(s)
    _, sign, lo, hi = (np.array(column, dtype=float) for column in zip(*searches))
    rows = np.arange(len(searches))
    best = np.zeros(len(searches))
    w = np.empty((len(searches), ZOOM_POINTS + 1))
    for _ in range(ZOOM_ROUNDS):
        u = lo[:, None] + (hi - lo)[:, None] * _ZOOM_T
        for k, members in orders.items():
            x = sign[members, None] * np.exp(u[members])
            w[members] = _weighted(f, k, theta, x.ravel()).reshape(x.shape)
        i = np.argmax(w, axis=1)
        best = np.maximum(best, w[rows, i])
        lo = u[rows, np.maximum(i - 1, 0)]
        hi = u[rows, np.minimum(i + 1, ZOOM_POINTS)]
    return best


def seminorm(f: ScalarFunction, d: int, theta: float) -> SeminormEstimate:
    """max_{0<=k<=d} sup_x |x|^{k-theta}|f^(k)(x)|.  A homogeneous f at its own
    degree (theta == f.theta_hint) that carries ``exact_order_sup`` takes it
    per order, with grid SEMINORM_EXACT and no edge.  Otherwise the value is a
    grid estimate (a lower bound) on the SEMINORM_GRID: per order and sign,
    the grid maximum, refined by _zoom between its neighbours when it is
    interior.  An order whose grid maximum is infinite is inf, unrefined.  An
    even or odd f runs the positive sign alone: the negative one would read
    the same bits."""
    if d < 0:
        raise ParameterError("order d must be nonnegative")
    if d > f.max_order:
        raise CapabilityError(
            f"{f.name}: seminorm order {d} exceeds max_order {f.max_order}"
        )
    if not 0.0 < theta <= 1.0:
        raise ParameterError(f"theta must lie in (0, 1], got {theta}")
    if f.exact_order_sup is not None and theta == f.theta_hint:
        per_order = np.array([f.exact_order_sup(k) for k in range(d + 1)], dtype=float)
        return SeminormEstimate(float(np.max(per_order)), per_order, SEMINORM_EXACT, ())
    per_order = np.zeros(d + 1)
    grid_tops = {}  # k -> {sign: (grid maximum, whether it is on a grid end)}
    searches = []  # (k, sign, u_lo, u_hi) of each interior grid maximum
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d + 1):
            tops, brackets = {}, []
            for sign in (1.0,) if f.even_or_odd else (1.0, -1.0):
                w = _weighted(f, k, theta, _GRID_X[sign])
                i = int(np.argmax(w))
                if math.isinf(w[i]):
                    per_order[k] = np.inf
                    break
                interior = 0 < i < _GRID_U.size - 1
                tops[sign] = float(w[i]), not interior
                if interior:
                    brackets.append((k, sign, float(_GRID_U[i - 1]), float(_GRID_U[i + 1])))
            else:
                grid_tops[k] = tops
                searches += brackets
        refined = {}
        if searches:
            refined = dict(zip([s[:2] for s in searches], _zoom(f, theta, searches).tolist()))
    edge = []
    for k, tops in grid_tops.items():
        values = {sign: max(top, refined.get((k, sign), 0.0)) for sign, (top, _) in tops.items()}
        per_order[k] = max(values.values())
        if any(on_end and values[sign] == per_order[k] for sign, (_, on_end) in tops.items()):
            edge.append(k)
    return SeminormEstimate(
        value=float(np.max(per_order)),
        per_order=per_order,
        grid=SEMINORM_GRID,
        edge=tuple(edge),
    )


# --- divided differences -----------------------------------------------------


def divided_difference_grid(f: ScalarFunction, xs, ys) -> np.ndarray:
    """Divided differences (f(x) - f(y)) / (x - y) on broadcast points (scalars
    give a 0-d array), extended by f' where x and y nearly coincide."""
    x, y = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    out = np.zeros(x.shape, dtype=float)
    far = np.abs(x - y) > DD_SWITCH * (np.abs(x) + np.abs(y) + 1.0)
    near = ~far
    if np.any(far):
        out[far] = (f.eval(x[far]) - f.eval(y[far])) / (x[far] - y[far])
    if np.any(near):
        mid = 0.5 * (x[near] + y[near])
        vals = np.empty_like(mid)
        at0 = mid == 0.0
        if np.any(at0):
            if f.derivative_at_zero is None:
                raise SingularityError(
                    f"{f.name}: divided difference at coincident zero has no finite value"
                )
            vals[at0] = f.derivative_at_zero
        if np.any(~at0):
            with np.errstate(divide="ignore", invalid="ignore"):
                vals[~at0] = f.deriv(1, mid[~at0])
        if not np.all(np.isfinite(vals)):
            raise SingularityError(f"{f.name}: derivative not finite on the diagonal")
        out[near] = vals
    return out


# --- d(p) and the dyadic scalar sum -------------------------------------------


def d_of_p(p: float) -> int:
    """Derivative order required at integrability p: the least integer
    strictly greater than 1/p + 2 for p <= 1, and 4 for p > 1; none where
    1/p leaves the float range."""
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    if p > 1:
        return 4
    inverse = 1.0 / float(p)
    if math.isinf(inverse):
        raise ParameterError(f"p = {p} is too small: d(p) needs 1/p, which leaves the float range")
    return int(math.floor(inverse + 2.0)) + 1


@dataclass(frozen=True)
class ScalarSumResult:
    lhs: float
    rhs_constant: float
    tail_bound: float


def scalar_sum_555(theta: float, q: float, alpha: float, tol: float = 1e-12) -> ScalarSumResult:
    """Evaluate sum_l 2^{q l (1-theta)} min(alpha, 2^{1-l})^q with certified
    geometric tail bounds, together with the explicit comparison constant
    2^{q(1-theta)} (1/(1 - 2^{q(theta-1)}) + 1/(1 - 2^{-q theta}))."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")
    if not q > 0:
        raise ParameterError(f"q must be positive, got {q}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")

    rhs_constant = 2.0 ** (q * (1.0 - theta)) * (
        1.0 / (1.0 - 2.0 ** (q * (theta - 1.0))) + 1.0 / (1.0 - 2.0 ** (-q * theta))
    )

    log2_alpha = math.log2(alpha)

    def term(l):
        # min(alpha, 2^{1-l}) without forming huge powers of two
        m = alpha if (1 - l) >= log2_alpha else 2.0 ** (1 - l)
        return 2.0 ** (q * l * (1.0 - theta)) * m ** q

    # Tails: below lmin every term is <= alpha^q 2^{q l (1-theta)} (geometric,
    # ratio 2^{-q(1-theta)} going down); above lmax every term equals
    # 2^q 2^{-q l theta} (geometric, ratio 2^{-q theta}).
    def tail_lo(lmin):
        return alpha ** q * 2.0 ** (q * (lmin - 1) * (1.0 - theta)) / (
            1.0 - 2.0 ** (-q * (1.0 - theta))
        )

    def tail_hi(lmax):
        return 2.0 ** q * 2.0 ** (-q * (lmax + 1) * theta) / (1.0 - 2.0 ** (-q * theta))

    center = int(math.floor(1.0 - math.log2(alpha)))
    lmin, lmax = center - 2, center + 2
    half = 0.5 * tol
    for _ in range(200000):
        if tail_lo(lmin) <= half:
            break
        lmin -= 8
    for _ in range(200000):
        if tail_hi(lmax) <= half:
            break
        lmax += 8
    lhs = float(sum(term(l) for l in range(lmin, lmax + 1)))
    return ScalarSumResult(lhs=lhs, rhs_constant=rhs_constant, tail_bound=tail_lo(lmin) + tail_hi(lmax))
