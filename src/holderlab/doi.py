"""Double operator integrals on matrices as Schur multipliers in eigenbases,
multiplier-norm upper bounds (separable decompositions and the
Fourier-coefficient route on the torus), empirical lower bounds, and the
dyadic band machinery for divided-difference symbols.

The multiplier norm of a symbol a is sandwiched: finite-matrix sampling gives
lower bounds, structural decompositions give uppers; the true value in between
is never claimed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (
    CapabilityError,
    ParameterError,
    SingularityError,
)
from .functions import (
    ScalarFunction,
    d_of_p,
    dilate_function,
    divided_difference_grid,
    seminorm,
)
from .norms import Schatten, norm_of_profile
from .spectral import (
    ZERO_TOL_COEFF,
    SpectralDecomposition,
    apply_function,
    as_hermitian,
    eig_hermitian,
    op_norm,
    spectral_projection,
)
from .ensembles import STACK_ENTRIES, SeedState, sample_schur_instances

PI_EMBED = math.sqrt(math.pi ** 2 / 3.0)
# terms kept by the geometric decompositions of alpha and beta
DECOMPOSITION_TERMS = 64
# Gauss-Legendre nodes of the divided difference's integral representation
QUAD_NODES = 64
# redraws of a sample that hits a singular spectrum in empirical_mp_lower
MAX_RESAMPLE = 8
# the dyadic bands k the sampling ranges of dyadic_symbols hold: at k > 40
# the range (1e-12, 2^(1-k)) of the other argument is empty, and at k < -1022
# its upper end 2^(1-k) overflows
DYADIC_K_RANGE = (-1022, 40)


# --- bivariate symbols --------------------------------------------------------


@dataclass(frozen=True)
class BivariateSymbol:
    """a(lambda, mu) with vectorized evaluation on broadcast grids.

    ``lambda_range`` / ``mu_range`` are sampling hints for the empirical
    lower bound (where eigenvalues should live to excite the symbol).
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str
    lambda_range: tuple = (-1.0, 1.0)
    mu_range: tuple = (-1.0, 1.0)


def dd_symbol(f: ScalarFunction) -> BivariateSymbol:
    """The divided-difference symbol of f (derivative on the diagonal)."""

    def ev(s, t):
        return divided_difference_grid(f, np.real(s), np.real(t))

    return BivariateSymbol(ev, f"dd[{f.name}]")


def _region_symbol(region, value, description, lambda_range, mu_range) -> BivariateSymbol:
    """value(s, t) where region(s, t) holds and 0 elsewhere: value sees only
    the points of the region, so a symbol singular off it is never evaluated."""

    def ev(s, t):
        s, t = np.broadcast_arrays(np.real(s).astype(float), np.real(t).astype(float))
        mask = region(s, t)
        out = np.zeros(s.shape, dtype=float)
        out[mask] = value(s[mask], t[mask])
        return out

    return BivariateSymbol(ev, description, lambda_range, mu_range)


def alpha_symbol() -> BivariateSymbol:
    """1/(s-t) on |s| in [1/2,1), 0 < |t| < 1/4."""
    return _region_symbol(
        lambda s, t: (
            (np.abs(s) >= 0.5) & (np.abs(s) < 1.0) & (np.abs(t) > 0.0) & (np.abs(t) < 0.25)
        ),
        lambda s, t: 1.0 / (s - t),
        "alpha", (0.5, 1.0), (1e-6, 0.25),
    )


def beta_symbol() -> BivariateSymbol:
    """t/(t-s) on |s| in [1/2,1), |t| > 2."""
    return _region_symbol(
        lambda s, t: (np.abs(s) >= 0.5) & (np.abs(s) < 1.0) & (np.abs(t) > 2.0),
        lambda s, t: t / (t - s),
        "beta", (0.5, 1.0), (2.0, 8.0),
    )


def _quadrant_symbol(name: str, side: int, theta: float, a: float) -> BivariateSymbol:
    """|s|^theta / (s - t) (side 0) or |t|^theta / (s - t) (side 1) on s < -a, t > 0."""
    if not (0.0 < theta < 1.0 and a > 0):
        raise ParameterError(f"{name} symbol needs theta in (0,1) and a > 0")
    return _region_symbol(
        lambda s, t: (s < -a) & (t > 0.0),
        lambda s, t: np.abs((s, t)[side]) ** theta / (s - t),
        f"{name}[theta={theta},a={a}]", (-4.0 * a, -a), (1e-6, 4.0 * a),
    )


def b0_symbol(theta: float, a: float = 1.0) -> BivariateSymbol:
    """|s|^theta / (s - t) on s < -a, t > 0."""
    return _quadrant_symbol("b0", 0, theta, a)


def b1_symbol(theta: float, a: float = 1.0) -> BivariateSymbol:
    """|t|^theta / (s - t) on s < -a, t > 0."""
    return _quadrant_symbol("b1", 1, theta, a)


def dyadic_symbols(f: ScalarFunction, k: int):
    """(g_k, h_k): the divided-difference symbol restricted to the dyadic band
    [2^-k-1, 2^-k) in the first (g) or second (h) argument, with the other
    argument on the positive half-line."""
    k_min, k_max = DYADIC_K_RANGE
    if not k_min <= k <= k_max:
        raise ParameterError(f"dyadic band index must lie in [{k_min}, {k_max}], got {k}")
    lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
    dd = functools.partial(divided_difference_grid, f)
    g = _region_symbol(
        lambda s, t: (s >= lo) & (s < hi) & (t > 0.0),
        dd, f"g_{k}[{f.name}]", (lo, hi), (1e-12, 2.0 * hi),
    )
    h = _region_symbol(
        lambda s, t: (t >= lo) & (t < hi) & (s > 0.0),
        dd, f"h_{k}[{f.name}]", (1e-12, 2.0 * hi), (lo, hi),
    )
    return g, h


# --- the Schur-multiplier action ----------------------------------------------


def _symbol_values(a: BivariateSymbol, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """[a(lam_i, mu_j)] over a stack (..., n) of spectrum pairs, as complex
    matrices (..., n, n).  Overflow and invalid values pass silently; callers
    check that the values are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(a.eval(lam[..., :, None], mu[..., None, :]), dtype=complex)
    return np.broadcast_to(m, lam.shape + mu.shape[-1:])


def symbol_matrix(a: BivariateSymbol, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Evaluate [a(lam_i, mu_j)] over a stack (..., n) of spectrum pairs and
    fail loudly on singular pairs."""
    m = _symbol_values(a, lam, mu)
    bad = ~np.isfinite(m)
    if np.any(bad):
        *k, i, j = np.argwhere(bad)[0]
        raise SingularityError(
            f"symbol {a.description} singular at (lambda, mu) = "
            f"({lam[(*k, i)]}, {mu[(*k, j)]})"
        )
    return m


def schur_apply(
    a: BivariateSymbol,
    dec_a: SpectralDecomposition,
    dec_b: SpectralDecomposition,
    v: np.ndarray,
) -> np.ndarray:
    """T_a(V): entrywise multiplication by [a(lam_i, mu_j)] in the eigenbases,
    over a stack of decomposition pairs and matrices V."""
    m = symbol_matrix(a, dec_a.eigenvalues, dec_b.eigenvalues)
    u, w = dec_a.basis, dec_b.basis
    g = np.swapaxes(u.conj(), -1, -2) @ np.asarray(v, dtype=complex) @ w
    return u @ (m * g) @ np.swapaxes(w.conj(), -1, -2)


def doi_lipschitz_identity(
    f: ScalarFunction, a, b, p_proj, q_proj
) -> float:
    """Relative residual of T_{dd f}(p (A-B) q) = p (f(A) - f(B)) q for
    spectral projections p, q of A, B."""
    am, bm = as_hermitian(a), as_hermitian(b)
    dec_a, dec_b = eig_hermitian(am), eig_hermitian(bm)
    diff = am - bm
    lhs = schur_apply(dd_symbol(f), dec_a, dec_b, p_proj @ diff @ q_proj)
    fa = apply_function(f, am, dec_a)
    fb = apply_function(f, bm, dec_b)
    rhs = p_proj @ (fa - fb) @ q_proj
    return op_norm(lhs - rhs) / (1.0 + op_norm(diff))


# --- separable decompositions and their bound ----------------------------------


@dataclass(frozen=True)
class MultiplierDecomposition:
    """a(s,t) = prefactor * sum_n phi_n(s) psi_n(t), stored through the sup
    norms of the factors; ``psi_tail_psum(p)`` bounds sum over the truncated
    tail of psi_sup^p analytically."""

    phi_sup: np.ndarray
    psi_sup: np.ndarray
    psi_tail_psum: Callable[[float], float]
    prefactor: float
    description: str


def decomposition_bound(dec: MultiplierDecomposition, p: float) -> float:
    """sup_n |phi_n| * (sum_n |psi_n|^p)^(1/p), valid for p <= 1."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"decomposition bound requires p in (0,1], got {p}")
    sup_phi = float(np.max(dec.phi_sup))

    def bound():
        psum = float(np.sum(dec.psi_sup ** p)) + dec.psi_tail_psum(p)
        return dec.prefactor * sup_phi * psum ** (1.0 / p)

    why = f"(sum_n |psi_n|^p)^(1/p) leaves the float range at p = {p}"
    return _float_range_guard(bound, dec.description, why)


def _geometric_decomposition(prefactor: float, description: str) -> MultiplierDecomposition:
    """prefactor * sum_n phi_n psi_n with phi sups 1 and psi sups 2^-n, over
    DECOMPOSITION_TERMS terms and the analytic tail beyond them."""
    n = DECOMPOSITION_TERMS
    return MultiplierDecomposition(
        phi_sup=np.ones(n),
        psi_sup=2.0 ** (-np.arange(n).astype(float)),
        psi_tail_psum=lambda p: 2.0 ** (-n * p) / (1.0 - 2.0 ** (-p)),
        prefactor=prefactor,
        description=description,
    )


def alpha_decomposition() -> MultiplierDecomposition:
    """Geometric expansion of alpha: 1/(s-t) = (1/s) sum_n (t/s)^n on the
    support; after pulling the factor 2 out of 1/s the phi sups are 1 and the
    psi sups are 2^-n."""
    return _geometric_decomposition(2.0, "alpha geometric")


def beta_decomposition() -> MultiplierDecomposition:
    """Geometric expansion of beta: t/(t-s) = sum_n s^n t^-n on the support."""
    return _geometric_decomposition(1.0, "beta geometric")


# --- Fourier route on the torus -------------------------------------------------


def smoothstep(order: int) -> np.polynomial.Polynomial:
    """Polynomial of degree 2*order+1 rising 0 -> 1 on [0,1] with ``order``
    vanishing derivatives at both ends."""
    coeffs = np.zeros(2 * order + 2)
    for k in range(order + 1):
        coeffs[order + 1 + k] = (
            math.comb(order + k, k) * math.comb(2 * order + 1, order - k) * (-1.0) ** k
        )
    return np.polynomial.Polynomial(coeffs)


class SmoothBump:
    """Piecewise-polynomial bump: 0 outside [lo, hi], 1 on [flo, fhi],
    smoothstep transitions of the given order in between.  All derivatives up
    to ``order`` are continuous and available in closed form."""

    def __init__(self, lo, flo, fhi, hi, order=6):
        if not lo < flo <= fhi < hi:
            raise ParameterError(f"bump knots must increase: {lo}, {flo}, {fhi}, {hi}")
        self.lo, self.flo, self.fhi, self.hi = float(lo), float(flo), float(fhi), float(hi)
        self.order = int(order)
        s = smoothstep(order)
        self._derivs = [s]
        for _ in range(order + 1):
            self._derivs.append(self._derivs[-1].deriv())

    def deriv(self, k: int, u) -> np.ndarray:
        if k > self.order + 1:
            raise CapabilityError(f"bump of order {self.order} has no derivative {k}")
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        rise = (u > self.lo) & (u < self.flo)
        fall = (u > self.fhi) & (u < self.hi)
        wr = self.flo - self.lo
        wf = self.hi - self.fhi
        if k == 0:
            out[(u >= self.flo) & (u <= self.fhi)] = 1.0
        if np.any(rise):
            out[rise] = self._derivs[k]((u[rise] - self.lo) / wr) / wr ** k
        if np.any(fall):
            out[fall] = self._derivs[k]((self.hi - u[fall]) / wf) * (-1.0) ** k / wf ** k
        return out


# the mixed partials of a 2*pi-periodic symbol on the square grid x * x of a 1-D
# grid x: partials(orders, x) yields blocks (rows, cols, values), values holding,
# for each (m, n) of orders, its derivative of order m in the second argument and
# n in the first at the points (x[rows], x[cols]); no point is yielded twice, and
# a point never yielded is 0
Partials = Callable[[list, np.ndarray], Iterator[tuple]]


def _zeta_upper(s: float) -> float:
    """An upper bound on the Riemann zeta function at s > 1, about 1e-15
    above it: the first 31 terms plus the Euler-Maclaurin tail at n = 32 up
    to the B_6 term.  The tail's next term (B_8) is negative, so the
    truncated sum exceeds zeta(s); one ulp up covers the rounding."""
    n, t = 32, 32.0 ** -s
    r = s * (s + 1) * (s + 2)
    tail = [n * t / (s - 1), t / 2, s * t / (12 * n), -r * t / (720 * n**3)]
    tail.append(r * (s + 3) * (s + 4) * t / (30240 * n**5))
    return math.nextafter(math.fsum([k ** -s for k in range(1, n)] + tail), math.inf)


def _check_fourier_order(p: float, b: int) -> None:
    """Raise ParameterError unless the Fourier route applies at p with order
    b: p in (0, 1] and b > 1/p.  The bounds run it before they build a bump
    of order b + 2, which cannot be built at every b it refuses."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"fourier route requires p in (0,1], got {p}")
    if not b > 1.0 / p:
        raise ParameterError(f"need b > 1/p (b={b}, 1/p={1.0 / p:g}); series diverges")


def fourier_coefficient_constant(p: float, b: int) -> float:
    """(sum_{n != 0} |n|^{-p b})^{1/p}; requires b > 1/p."""
    _check_fourier_order(p, b)
    return float((2.0 * _zeta_upper(p * b)) ** (1.0 / p))


@dataclass(frozen=True)
class FourierSobolevBound:
    upper: float
    c_pb: float
    quadrature_error: float
    grid_n: int


# the largest grid_n; the Fourier route's memory does not grow with it (its
# moments are taken per block), but its time grows as grid_n^2
MAX_GRID = 1024


def check_grid(grid_n: int) -> None:
    if not 2 <= grid_n <= MAX_GRID:
        raise ParameterError(f"the quadrature grid needs 2 <= grid_n <= {MAX_GRID}, got {grid_n}")


def _torus_grid(n: int):
    x = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return x


def _row_sums(rows, vals, n: int) -> np.ndarray:
    """The sums of ``vals`` over the points of each row 0..n-1."""
    if np.iscomplexobj(vals):
        return _row_sums(rows, vals.real, n) + 1j * _row_sums(rows, vals.imag, n)
    return np.bincount(rows, weights=vals, minlength=n)


def _add_moments(moments: list, rows, vals, n: int) -> None:
    """Add a block of the partials (0, 0), (0, 1), (b, 0), (b, 1) at rows
    ``rows`` of the n-point grid to ``moments``: the row sums of the first
    two, and of the squares of the last two."""
    for k, v in enumerate(vals):
        moments[k] = moments[k] + _row_sums(rows, v if k < 2 else np.abs(v) ** 2, n)


def _fourier_moments(partials: Partials, b: int, n: int) -> tuple:
    """The moments of _add_moments on the n-point torus grid and on its
    every-other-point grid (n // 2 points), from one pass over the blocks of
    the partials on the n-point grid: _torus_grid(n)[::2] equals
    _torus_grid(n // 2) bit for bit."""
    fine, coarse = [0.0] * 4, [0.0] * 4
    for rows, cols, vals in partials([(0, 0), (0, 1), (b, 0), (b, 1)], _torus_grid(n)):
        _add_moments(fine, rows, vals, n)
        even = (rows % 2 == 0) & (cols % 2 == 0)
        _add_moments(coarse, rows[even] // 2, [v[even] for v in vals], n // 2)
    return fine, coarse


def _l2_mean(vals) -> float:
    return float(math.sqrt(np.mean(np.abs(vals) ** 2)))


def _fourier_upper(moments, n: int, p: float, c_pb: float) -> float:
    """The bound from the moments of the partials on the n-point torus grid."""
    a0, a0p, db, db1 = moments
    # the row means (over the second argument) give the zeroth Fourier
    # coefficient a_0(x) and its derivative
    u0 = _l2_mean(a0 / n) + PI_EMBED * _l2_mean(a0p / n)
    u1 = c_pb * (math.sqrt(np.sum(db) / n**2) + PI_EMBED * math.sqrt(np.sum(db1) / n**2))
    return (u0 ** p + u1 ** p) ** (1.0 / p)


def fourier_sobolev_bound(
    partials: Partials, p: float, b: int, grid_n: int = 256
) -> FourierSobolevBound:
    """Multiplier-norm upper bound for the periodic symbol of ``partials`` via
    its Fourier expansion in the second argument: the zeroth coefficient contributes
    ||a_0||_2 + (pi^2/3)^{1/2} ||d_1 a_0||_2, the rest contribute
    c_{p,b} (||d_2^b a||_2 + (pi^2/3)^{1/2} ||d_2^b d_1 a||_2), combined with
    the p-power triangle inequality.  All torus L2 norms use normalized
    measure; quadrature is the uniform tensor trapezoid rule.

    The bound is taken on the (2 grid_n)^2 grid, and its quadrature error is
    estimated as the change from the grid_n^2 grid, which is every other
    point of it: the partials are evaluated once, on the finer grid, and each
    block of them is added into the moments of both grids and dropped, so
    memory does not grow with the number of grid points."""
    check_grid(grid_n)
    c_pb = fourier_coefficient_constant(p, b)
    n = 2 * grid_n
    fine, coarse = _fourier_moments(partials, b, n)
    upper = _fourier_upper(fine, n, p, c_pb)
    err = abs(upper - _fourier_upper(coarse, grid_n, p, c_pb))
    return FourierSobolevBound(
        upper=float(upper),
        c_pb=c_pb,
        quadrature_error=float(err),
        grid_n=n,
    )


@functools.cache
def _gauss_legendre_01(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# grid pairs per block of the localized symbols: a block holds one array of
# this many points per part of the kernel (_localized_periodic), and bounds
# the memory of the Fourier route (fourier_sobolev_bound)
DD_BLOCK = 4096
# the Gauss-Legendre orders a row of the divided-difference table may take,
# and the share of each part's largest probe value they must keep to (_dd_orders)
DD_ORDERS = (8, 12, 16, 24, 32, 48)
DD_ORDER_TOL = 4e-14


def _dd_table(f: ScalarFunction, parts, x, y, n) -> dict:
    """d_1^i d_2^j dd f(x, y) = int t^i (1-t)^j f^(1+i+j)(t x + (1-t) y) dt
    for every (i, j) of ``parts``, by Gauss-Legendre quadrature of the order
    n[k] at the point k, each run of points of one order written in place:
    per node, one ladder of the derivative orders 1 up to the highest the
    parts need (f.derivatives), and each part's term taken into one buffer."""
    top = 1 + max(i + j for i, j in parts)
    dd = {ij: np.zeros(x.shape, dtype=float) for ij in parts}
    term = np.empty(x.shape, dtype=float)
    cuts = np.flatnonzero(np.diff(n, prepend=0, append=0))
    for s, e in zip(cuts, cuts[1:]):
        xs, ys, buf, run = x[s:e], y[s:e], term[s:e], {ij: v[s:e] for ij, v in dd.items()}
        for t, w in zip(*_gauss_legendre_01(int(n[s]))):
            d = f.derivatives(top, t * xs + (1.0 - t) * ys)
            for i, j in parts:
                run[i, j] += np.multiply(w * t ** i * (1.0 - t) ** j, d[i + j], out=buf)
    return dd


def _dd_orders(f: ScalarFunction, parts, support) -> np.ndarray:
    """The Gauss-Legendre order of each row y = support[k] of the pairs x >= y:
    the least of DD_ORDERS whose table at the row's longest pair (max support,
    y) is within DD_ORDER_TOL of each part's largest value over that column of
    the QUAD_NODES rule's, else QUAD_NODES.  The catalog's functions are
    singular at or left of 0 only, so the longest pair is the row's hardest."""
    x = np.full_like(support, support.max(initial=0.0))
    rows = np.arange(support.size)
    ref = _dd_table(f, parts, x, support, np.full(x.size, QUAD_NODES))
    tol = {ij: DD_ORDER_TOL * np.abs(v).max(initial=0.0) for ij, v in ref.items()}
    orders = np.full(support.shape, QUAD_NODES)
    for n in DD_ORDERS:
        table = _dd_table(f, parts, x[rows], support[rows], np.full(rows.size, n))
        ok = np.logical_and.reduce([np.abs(table[ij] - ref[ij][rows]) <= tol[ij] for ij in parts])
        orders[rows[ok]] = n
        rows = rows[~ok]
    return orders


def _localized_periodic(bump_x, bump_y, kernel) -> Partials:
    """The partials of bump_x(x) bump_y(y) k(x, y), supported where both bumps
    are and extended periodically, from ``kernel(parts, support)(x, y)``, given
    the grid inside bump_x: the partials d_1^i d_2^j k at the points (x, y) for
    every (i, j) of ``parts``, for a symmetric k(x, y) = k(y, x).  The partials
    of the product follow by the Leibniz rule, over blocks of DD_BLOCK grid
    pairs of the support, each yielded as it is done: per block, one kernel
    table serves every partial.  Each bump derivative is taken once per grid
    coordinate.  With one bump on both axes the product is symmetric, its
    partial (m, n) at (y, x) being its partial (n, m) at (x, y): the kernel is
    evaluated once per unordered pair, at x >= y in the order of y, and the
    block of the mirror pairs takes the transposed orders (each diagonal point
    is yielded once, with the order m >= n): (m, n) and (n, m) are exact
    transposes."""
    symmetric = bump_x is bump_y

    def partials(orders, x):
        ix, iy = (np.flatnonzero((x > bump.lo) & (x < bump.hi)) for bump in (bump_x, bump_y))
        sums = set(orders) | ({(n, m) for m, n in orders} if symmetric else set())
        # the parts the product rule needs: a union of rectangles from (0, 0),
        # so _dd_table uses every derivative order it evaluates
        parts = {(i, j) for m, n in sums for i in range(n + 1) for j in range(m + 1)}
        block = kernel(parts, x[ix])
        top = max(max(mn) for mn in sums)
        bx, by = ([bump.deriv(k, x) for k in range(top + 1)] for bump in (bump_x, bump_y))
        # the pairs row by row, row k from starts[k]: the triangle of the pairs
        # (ix[k + step], ix[k]), or the rectangle of the pairs (ix[k], iy[step])
        lengths = np.arange(ix.size, 0, -1) if symmetric else np.full(ix.size, iy.size)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        for s in range(0, starts[-1], DD_BLOCK):
            at = np.arange(s, min(s + DD_BLOCK, starts[-1]))
            row = np.searchsorted(starts, at, side="right") - 1
            step = at - starts[row]
            r, c = (ix[row + step], ix[row]) if symmetric else (ix[row], iy[step])
            table = block(x[r], x[c])
            bxr, byc = [v[r] for v in bx], [v[c] for v in by]
            leibniz = {}
            for m, n in sums:
                part = np.zeros(r.shape, dtype=float)
                for i in range(n + 1):
                    for j in range(m + 1):
                        fac = math.comb(n, i) * math.comb(m, j)
                        part += fac * bxr[n - i] * byc[m - j] * table[i, j]
                leibniz[m, n] = part
            if not symmetric:
                yield r, c, [leibniz[mn] for mn in orders]
                continue
            diagonal = r == c
            for m, n in sums:
                if m < n:
                    leibniz[m, n][diagonal] = leibniz[n, m][diagonal]
            yield r, c, [leibniz[mn] for mn in orders]
            off = ~diagonal
            yield c[off], r[off], [leibniz[n, m][off] for m, n in orders]

    return partials


def localized_dd_periodic(f: ScalarFunction, bump: SmoothBump) -> Partials:
    """The partials of bump(x) bump(y) dd f(x, y), supported inside (0, pi]^2
    and extended periodically.  Mixed partials of the divided difference come from its
    integral representation: d_1^n d_2^m dd f = int t^n (1-t)^m f^(1+n+m),
    each row y of pairs by its own Gauss-Legendre order (_dd_orders)."""

    def kernel(parts, support):
        rule = _dd_orders(f, parts, support)
        return lambda x, y: _dd_table(f, parts, x, y, rule[np.searchsorted(support, y)])

    return _localized_periodic(bump, bump, kernel)


def localized_inverse_sum_periodic(bump_s: SmoothBump, bump_t: SmoothBump) -> Partials:
    """The partials of phi1(s) phi2(t) / (s + t): the smooth local model of
    the shifted inverse kernel, supported where s + t >= 1/2."""

    def table(parts, x, y):
        # d_1^i d_2^j 1/(x + y) = (-1)^(i+j) (i+j)! / (x + y)^(1+i+j)
        return {
            (i, j): (-1.0) ** (i + j) * math.factorial(i + j) / (x + y) ** (1 + i + j)
            for i, j in parts
        }

    return _localized_periodic(bump_s, bump_t, lambda parts, _: functools.partial(table, parts))


def default_b_for(p: float) -> int:
    """Fourier smoothness order used by the composed bounds: two less than
    the derivative budget d(p), which is the least b with b > 1/p."""
    return d_of_p(min(p, 1.0)) - 2


def local_dd_bound(
    f: ScalarFunction, p: float, b: int | None = None, grid_n: int = 256
) -> float:
    """Upper bound for the multiplier norm of bump x bump times dd f, with a
    bump of order b + 2, whose partials need the derivatives of f up to b + 2."""
    if b is None:
        b = default_b_for(p)
    if b + 2 > f.max_order:
        raise CapabilityError(f"{f.name}: localized bound needs derivative order {f.max_order + 1}")
    _check_fourier_order(p, b)
    partials = localized_dd_periodic(f, SmoothBump(0.125, 0.25, 2.0, math.pi, order=b + 2))
    return fourier_sobolev_bound(partials, p, b, grid_n=grid_n).upper


def _float_range_guard(bound: Callable[[], float], what: str, why: str) -> float:
    """bound() with its overflows silenced.  An infinite bound is still a
    bound, but a NaN is none, and neither is a finite one taken after an
    overflow, which flushes its term to 0, or cut short by an OverflowError
    or by a ZeroDivisionError (a difference of floats that rounds to 0)."""
    overflows = []
    try:
        with np.errstate(all="ignore", over="call", call=lambda *_: overflows.append(1)):
            upper = bound()
    except (OverflowError, ZeroDivisionError):  # Python arithmetic beyond the float range
        overflows, upper = [1], 0.0
    if math.isnan(upper) or (overflows and math.isfinite(upper)):
        reason = "is not finite (NaN)" if math.isnan(upper) else "lost terms to overflow"
        raise CapabilityError(f"the upper bound of {what} {reason}: {why}")
    return upper


# the largest Fourier order of b0_upper_bound: the partials of its local model
# 1/(s + t) of order b + 1 carry (b + 1)!, and 171! leaves the float range
MAX_B0_ORDER = 169


def b0_upper_bound(
    theta: float, a: float, p: float, b: int | None = None, grid_n: int = 256
) -> float:
    """Upper bound C * a^(theta-1) for the second/fourth-quadrant kernels
    |s|^theta/(s-t) and |t|^theta/(s-t): dyadic rings reduce every piece to a
    smooth local model of 1/(s+t) whose multiplier norm is bounded by the
    Fourier route; the ring sums are geometric."""
    if not (0.0 < theta < 1.0 and a > 0):
        raise ParameterError("need theta in (0,1) and a > 0")
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"b0 bound requires p in (0,1], got {p}")
    if b is None:
        b = default_b_for(p)
    if b > MAX_B0_ORDER:
        raise CapabilityError(
            f"b0 and b1 need b <= {MAX_B0_ORDER}, got b = {b} at p = {p}: (b + 1)! leaves the "
            "float range"
        )
    _check_fourier_order(p, b)

    def bound():
        bump_s = SmoothBump(0.75, 1.0, 2.0, 2.25, order=b + 2)
        bump_t = SmoothBump(-0.25, 0.0, 2.0, 2.25, order=b + 2)
        c_phi = fourier_sobolev_bound(
            localized_inverse_sum_periodic(bump_s, bump_t), p, b, grid_n=grid_n
        ).upper
        # ring (k,l) contributes (2 c_phi a^{theta-1} 2^{-(1-theta) max(k,l)})^p;
        # counting pairs with max = M gives 2M+2 of them.
        x = 2.0 ** (-p * (1.0 - theta))
        ring_sum = 2.0 / (1.0 - x) ** 2
        return 2.0 * c_phi * a ** (theta - 1.0) * ring_sum ** (1.0 / p)

    return _float_range_guard(bound, f"b0 and b1 at b = {b}", "its terms leave the float range")


def _positive_sup(f: ScalarFunction, theta: float) -> float:
    """sup_{x != 0} |f(x)| / |x|^theta: exact for a homogeneous f at its own
    degree theta, a grid estimate otherwise (functions.seminorm)."""
    return float(seminorm(f, 0, theta).per_order[0])


def band_upper_bound(
    f: ScalarFunction, theta: float, p: float, b: int | None = None, grid_n: int = 256
) -> float:
    """Upper bound for the multiplier norm of dd f restricted to
    [1/2, 1) x (0, inf): the three pieces (inner band, far-below band via the
    alpha expansion, far-above band via the beta expansion) are combined with
    the p-power triangle inequality."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"band bound requires p in (0,1], got {p}")
    s0 = _positive_sup(f, theta)
    up_alpha = decomposition_bound(alpha_decomposition(), p)
    up_beta = decomposition_bound(beta_decomposition(), p)
    loc = local_dd_bound(f, p, b=b, grid_n=grid_n)
    piece_low = 2.0 * s0 ** p * up_alpha ** p
    piece_high = 2.0 * s0 ** p * up_beta ** p
    return float((piece_low + piece_high + loc ** p) ** (1.0 / p))


def dyadic_upper_bound(
    f: ScalarFunction, k: int, theta: float, p: float, b: int | None = None, grid_n: int = 256
) -> float:
    """Upper bound for the multiplier norm of g_k, scaling like 2^{k(1-theta)},
    with Fourier smoothness order b (default default_b_for(p)).

    For f homogeneous of degree theta (its theta_hint) the band bound is
    computed once and scaled exactly; otherwise the dilated function is
    bounded directly.
    """
    if f.theta_hint == theta:
        base = band_upper_bound(f, theta, p, b=b, grid_n=grid_n)
        return 2.0 ** (k * (1.0 - theta)) * base
    fk = dilate_function(f, 2.0 ** k)
    return _float_range_guard(
        lambda: 2.0 ** k * band_upper_bound(fk, theta, p, b=b, grid_n=grid_n),
        f"g_{k}[{f.name}]",
        f"the derivatives of {f.name} dilated by 2^{k} leave the float range",
    )


# --- empirical lower bounds -----------------------------------------------------


@dataclass(frozen=True)
class MpBound:
    lower: float
    upper: Optional[float]
    method: str


@dataclass(frozen=True)
class EmpiricalLower:
    value: float
    trials: int
    resampled: int


def _symbol_stack(a: BivariateSymbol, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The symbol matrices of a stack of spectrum pairs, NaN for a pair on
    which the symbol raises SingularityError: a stack of several pairs on
    which it raises is evaluated again one pair at a time."""
    try:
        return _symbol_values(a, lam, mu)
    except SingularityError:
        if len(lam) == 1:
            return np.full((1, lam.shape[-1], mu.shape[-1]), np.nan, dtype=complex)
        return np.concatenate(
            [_symbol_stack(a, lam[i : i + 1], mu[i : i + 1]) for i in range(len(lam))]
        )


def _ratio_round(a: BivariateSymbol, spec: Schatten, dim: int, seeds):
    """Draw one instance per seed; returns per seed whether its symbol matrix
    is finite, and the ratios ||m * V||_p / ||V||_p of the finite ones."""
    lam, mu, v = sample_schur_instances(dim, a.lambda_range, a.mu_range, seeds)
    m = _symbol_stack(a, lam, mu)
    ok = np.all(np.isfinite(m), axis=(-2, -1))
    v = v[ok]
    out = np.linalg.svd(m[ok] * v, compute_uv=False)
    num, den = (norm_of_profile(sv, spec) for sv in (out, np.linalg.svd(v, compute_uv=False)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return ok, np.where(den == 0.0, 0.0, num / den).tolist()


def empirical_mp_lower(
    a: BivariateSymbol,
    p: float,
    dim: int,
    trials: int,
    seed: SeedState,
) -> EmpiricalLower:
    """Finite-matrix lower bound for the multiplier norm: the max of
    ||m * V||_p / ||V||_p over the symbol matrices m of sampled eigenvalue
    grids (uniform in the symbol's sampling ranges) and Gaussian V.  This
    ratio has the law of ||T_a(V)||_p / ||V||_p in Haar eigenbases (see
    sample_schur_instances), so no bases are drawn.

    Trial t draws from seed.child(t, attempt).  The trials run in stacks of
    at most STACK_ENTRIES complex entries, three matrices per trial (V, m,
    m * V).  A trial on which the symbol is singular is redrawn at the next
    attempt, in a round of the trials that need it, up to MAX_RESAMPLE times."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    spec = Schatten(p)
    size = max(1, STACK_ENTRIES // (3 * dim * dim))
    best = 0.0
    resampled = 0
    for start in range(0, trials, size):
        pending = range(start, min(start + size, trials))
        for attempt in range(MAX_RESAMPLE + 1):
            ok, ratios = _ratio_round(a, spec, dim, [seed.child(t, attempt) for t in pending])
            best = max([best, *ratios])
            pending = [t for t, good in zip(pending, ok) if not good]
            resampled += len(pending)
            if not pending:
                break
        else:
            raise SingularityError(
                f"symbol {a.description}: sampling kept hitting singular spectra"
            )
    return EmpiricalLower(value=best, trials=trials, resampled=resampled)


# --- representation of the positive-part difference -----------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    residual: float
    covered: bool


def representation_reconstruct(f: ScalarFunction, a, b, k_range) -> ReconstructionResult:
    """Reassemble P_+ (f(A) - f(B)) Q_+ from the dyadic band terms
    T_{g_k}(P_k (A-B) Q_(0, 2^-k)) + T_{h_k}(P_(0, 2^-k-1) (A-B) Q_k), with
    (g_k, h_k) = dyadic_symbols(f, k) for k in k_range = (k_min, k_max), and
    report the relative operator-norm gap.  P and Q are spectral projections
    of A and B (P_k, Q_k onto the band [2^-k-1, 2^-k), the subscript + onto
    the eigenvalues above the zero tolerance of both spectra, which also opens
    every interval from 0).  ``covered`` records whether every strictly
    positive eigenvalue lies inside the union of bands."""
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min > k_max:
        raise ParameterError(f"empty k range {k_range}")
    am, bm = as_hermitian(a), as_hermitian(b)
    dec_a, dec_b = eig_hermitian(am), eig_hermitian(bm)
    lam, mu = dec_a.eigenvalues, dec_b.eigenvalues
    top = max(np.abs(lam).max(initial=0.0), np.abs(mu).max(initial=0.0))
    zero_tol = ZERO_TOL_COEFF * (1.0 + float(top))  # of both spectra taken together
    positive = np.nextafter(zero_tol, np.inf)

    spectra = np.concatenate([lam, mu])
    spectra = spectra[spectra > zero_tol]
    covered = bool(np.all((spectra >= 2.0 ** (-k_max - 1)) & (spectra < 2.0 ** (-k_min))))

    diff = am - bm
    total = np.zeros_like(diff)
    for k in range(k_min, k_max + 1):
        lo, hi = 2.0 ** (-k - 1), 2.0 ** (-k)
        g_k, h_k = dyadic_symbols(f, k)
        v_k = spectral_projection(dec_a, lo, hi) @ diff @ spectral_projection(dec_b, positive, hi)
        w_k = spectral_projection(dec_a, positive, lo) @ diff @ spectral_projection(dec_b, lo, hi)
        total += schur_apply(g_k, dec_a, dec_b, v_k) + schur_apply(h_k, dec_a, dec_b, w_k)

    fa, fb = apply_function(f, am, dec_a), apply_function(f, bm, dec_b)
    p_plus = spectral_projection(dec_a, positive, np.inf)
    q_plus = spectral_projection(dec_b, positive, np.inf)
    target = p_plus @ (fa - fb) @ q_plus
    residual = op_norm(total - target) / (1.0 + op_norm(target))
    return ReconstructionResult(residual=float(residual), covered=covered)
