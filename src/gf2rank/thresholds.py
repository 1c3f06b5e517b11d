"""Numerical evaluation of the analytic threshold machinery.

Everything is driven by four functions of the weight pgf rho:

* F(alpha) = log sup_gamma (1 + rho(1-2 gamma))^alpha / (2 gamma^gamma (1-gamma)^(1-gamma)),
  whose first zero-departure locates alpha_star (growth onset of the expected
  null-vector count);
* R(alpha), the same supremum with rho^alpha in place of (1 + rho)^alpha,
  giving the decay rate of the all-columns-even probability;
* h(x) = -log(1-x) / rho'(x) and psi(x) = x + (1 + rho(x)/rho'(x) - x) log(1-x),
  which control the 2-core: g_star(alpha) = sup{x : h(x) <= alpha} is the
  peeling survival parameter, alpha_sharp = inf h is the core-onset
  threshold, and alpha_bar (first alpha past alpha_sharp with
  psi(g_star(alpha)) < 0) is the onset of a core with more rows than
  occupied columns.

The h-landscape of a distribution is one sweep of h over a fixed grid.  It
gives alpha_sharp, the local minima of h (which g_star needs) and the jump
set of g_star.  Each public function computes it once per call and passes
it down, so threshold_report and core_theory sweep h once each.

All one-dimensional optima use a dense bracket grid (log-refined toward the
interval ends) followed by golden-section or bisection refinement; nothing
assumes unimodality, since h and psi are genuinely multi-modal for mixture
weights.  The endpoint convention 0^0 = 1 is applied throughout.

The grid sweeps of h, psi and the R integrand and the alpha scans for
alpha_bar and the psi(g_star) sign pattern are numpy array evaluations; a
scan bisects g_star for a block of alphas at once.  F_gamma is still swept
point by point.  The scalar functions (_h, _psi, _h_of_u, _psi_of_u,
_g_star_u, _psi_g_star, _R_gamma, F_gamma) remain: they do every
golden-section and bisection refinement, and the tests use them as the
oracle for the arrays.  numpy's log, exp and pow may differ from math's in
the last bit, so an array value can differ from its scalar counterpart by a
few ulps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import Inconsistent, InvalidParam, NoConvergence
from .weights import WeightDist

TOL_F = 1e-12          # F > TOL_F counts as positive in the alpha_star bisection
ALPHA_TOL = 1e-12      # alpha-bisection resolution
GAMMA_TOL = 1e-12      # golden-section resolution in gamma
X_TOL = 1e-13          # golden/bisection resolution in x
GSTAR_TOL = 1e-12
ALPHA_BAR_TOL = 1e-9
ALPHA_BAR_STEP = 1e-4  # resolves sign windows a few 1e-4 wide (mixture cases)
ALPHA_BAR_MAX = 1.05   # end of the alpha_bar scan
ROUTE_TOL = 1e-6       # agreement required between independent alpha_star routes
PROMINENCE = 1e-10     # minimum depth for a local minimum to count as a jump
X_HI = 1.0 - 1e-15     # guard for log(1-x)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# --- generic 1-d search helpers -------------------------------------------

def _golden_min(f, a: float, b: float, tol: float):
    while b - a > tol:
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    x = 0.5 * (a + b)
    return x, f(x)


def _bisect(pred, lo, hi, tol):
    """Halve [lo, hi] to width tol, moving lo to each midpoint where pred
    holds and hi to the others; returns the final bracket.  Works on floats
    and on mpf."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _grid_sup(f, grid, vals, ends):
    """Candidates for sup f over the grid's span as (value, location) pairs:
    f at the grid indices in ends, and every interior grid local maximum of
    the array vals (f on grid), golden-refined.  A point whose neighbours
    both hold its own value is a flat run, not a peak, and is not refined."""
    mid, left, right = vals[1:-1], vals[:-2], vals[2:]
    peaks = (mid >= left) & (mid >= right) & ~((mid == left) & (mid == right))
    cands = [(f(float(grid[i])), float(grid[i])) for i in ends]
    for i in np.flatnonzero(peaks) + 1:
        g0, v0 = _golden_min(lambda g: -f(g), float(grid[i - 1]), float(grid[i + 1]),
                             GAMMA_TOL)
        cands.append((-v0, g0))
    return cands


def _unit_grid(n: int, lo_exp: int = 44) -> tuple:
    pts = [i / n for i in range(1, n)]
    pts += [2.0**-e for e in range(int(math.log2(n)), lo_exp)]
    pts += [1.0 - 2.0**-e for e in range(int(math.log2(n)), lo_exp)]
    return tuple(sorted(set(pts)))


def _frozen(points) -> np.ndarray:
    a = np.array(points, dtype=np.float64)
    a.flags.writeable = False
    return a


_X_GRID = _frozen(_unit_grid(8192))
_GAMMA_GRID = _frozen(sorted({0.5 * x for x in _unit_grid(2048, lo_exp=56)} | {0.0, 0.5}))


# --- rate functions F and R ------------------------------------------------

def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0  # 0^0 = 1 convention


def _xlogx_array(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def F_gamma(dist: WeightDist, alpha: float, gamma: float) -> float:
    """log[(1 + rho(1-2 gamma))^alpha / (2 gamma^gamma (1-gamma)^(1-gamma))]."""
    if not 0.0 <= gamma <= 0.5:
        raise InvalidParam(f"gamma {gamma} outside [0, 1/2]")
    ent = _xlogx(gamma) + _xlogx(1.0 - gamma)
    return alpha * math.log1p(dist.pgf(1.0 - 2.0 * gamma)) - math.log(2.0) - ent


def F_of_alpha(dist: WeightDist, alpha: float):
    """sup over gamma in [0, 1/2] of F_gamma, with the smallest maximizer.

    Returns (value, gamma0, beta0) where beta0 = rho(1-2 g0)/(1 + rho(1-2 g0))
    is the null-vector row-usage fraction at the optimum.
    """
    # swept point by point with the scalar F_gamma; ROADMAP direction 2 says
    # why the array sweep waits
    grid = _GAMMA_GRID
    vals = np.array([F_gamma(dist, alpha, g) for g in grid.tolist()])
    cands = _grid_sup(lambda g: F_gamma(dist, alpha, g), grid, vals, ends=(0, -1))
    best = max(v for v, _ in cands)
    gamma0 = min(g for v, g in cands if v >= best - 1e-14)
    r = dist.pgf(1.0 - 2.0 * gamma0)
    return best, gamma0, r / (1.0 + r)


def alpha_star(dist: WeightDist) -> float:
    """inf{alpha >= 0 : F(alpha) > 0} by bisection against F > TOL_F.

    For a fixed weight r >= 3 the result is cross-checked against two
    independent routes (the stationary-point equation in gamma, and the
    hyperbolic-substitution system); disagreement beyond ROUTE_TOL raises
    Inconsistent.
    """
    if F_of_alpha(dist, 0.0)[0] > TOL_F:
        return 0.0
    hi = 1.0 if F_of_alpha(dist, 1.0)[0] > TOL_F else 2.0  # alpha_star <= 1; guard anyway
    lo, hi = _bisect(lambda a: F_of_alpha(dist, a)[0] <= TOL_F, 0.0, hi, ALPHA_TOL)
    a_sup = 0.5 * (lo + hi)
    if len(dist.atoms) == 1 and dist.min_weight >= 3:
        r = dist.min_weight
        a_stat = _alpha_star_stationary(r)
        a_lam = float(_alpha_star_lambda_system(r))
        if abs(a_sup - a_stat) > ROUTE_TOL or abs(a_sup - a_lam) > ROUTE_TOL:
            raise Inconsistent(
                f"alpha_star routes disagree at r={r}: sup={a_sup!r}, "
                f"stationary={a_stat!r}, lambda-system={a_lam!r}")
        # best-conditioned route once agreement is established; it lands a
        # few ulps above 1 for heavy weights (r = 34, 36, ...)
        return min(a_lam, 1.0)
    return min(a_sup, 1.0)  # alpha_star <= 1 always; the bisection can overshoot by ~1e-12


def _alpha_star_stationary(r: int) -> float:
    # Solve alpha_r(gamma) = phi_r(gamma); the difference is decreasing on
    # (0, 1/2).  The root sits near e^-r, so the bisection runs on log(gamma).
    def a_r(u):
        g = math.exp(u)
        t = 1.0 - 2.0 * g
        return (1.0 + t**r) / (2.0 * r * t ** (r - 1)) * (math.log1p(-g) - u)

    def phi_r(u):
        g = math.exp(u)
        t = 1.0 - 2.0 * g
        # log(2 g^g (1-g)^(1-g)) evaluated stably for tiny g
        return (math.log(2.0) + g * u + (1.0 - g) * math.log1p(-g)) / math.log1p(t**r)

    lo, hi = _bisect(lambda u: a_r(u) - phi_r(u) > 0.0,
                     math.log(1e-300), math.log(0.45), 1e-11)
    return a_r(0.5 * (lo + hi))


def _alpha_star_lambda_system(r: int, precision: int = 0):
    # Two-equation system in (alpha, lambda) with t = tanh(lambda):
    #   (1 + t^r)^alpha e^{-lambda t} cosh(lambda) = 1
    #   r alpha = (1 + t^-r) lambda t
    # Substituting the second into the first leaves one equation in lambda.
    ctx = mp if precision else math

    def a_of(lam):
        t = ctx.tanh(lam)
        return (1 + t**-r) * lam * t / r

    def f(lam):
        t = ctx.tanh(lam)
        return a_of(lam) * ctx.log1p(t**r) - lam * t + ctx.log(ctx.cosh(lam))

    def solve(lo, hi, tol):
        lo_sign = f(lo) > 0
        lo, hi = _bisect(lambda lam: (f(lam) > 0) == lo_sign, lo, hi, tol)
        return a_of((lo + hi) / 2)

    if precision:
        with mp.workprec(precision):
            return solve(mp.mpf("0.05"), mp.mpf(80), mp.mpf(2) ** (20 - precision))
    return solve(0.05, 80.0, 1e-14)


def _R_gamma(dist: WeightDist, alpha: float, g: float) -> float:
    # log of the R integrand rho(1-2 g)^alpha / (2 g^g (1-g)^(1-g))
    if g >= 0.5:
        return -math.inf  # rho(0) = 0 for min_weight >= 1
    v = dist.pgf(1.0 - 2.0 * g)
    if v <= 0.0:  # double underflow for tiny arguments with heavy weights
        return -math.inf
    ent = _xlogx(g) + _xlogx(1.0 - g)
    return alpha * math.log(v) - math.log(2.0) - ent


def _R_gamma_array(dist: WeightDist, alpha: float, grid: np.ndarray) -> np.ndarray:
    # _R_gamma over an array of g in [0, 1/2)
    v = dist.pgf(1.0 - 2.0 * grid)
    ent = _xlogx_array(grid) + _xlogx_array(1.0 - grid)
    with np.errstate(divide="ignore"):
        return np.where(v > 0.0, alpha * np.log(v) - math.log(2.0) - ent, -math.inf)


def R_of_alpha(dist: WeightDist, alpha: float):
    """Decay rate of the all-columns-even probability:
    -log sup_gamma rho(1-2 gamma)^alpha / (2 gamma^gamma (1-gamma)^(1-gamma)).

    Returns (rate, gamma1) with gamma1 the maximizer.
    """
    if alpha <= 0:
        raise InvalidParam(f"alpha {alpha} <= 0")
    grid = _GAMMA_GRID[:-1]
    vals = _R_gamma_array(dist, alpha, grid)
    best, g1 = max(_grid_sup(lambda g: _R_gamma(dist, alpha, g), grid, vals, ends=(0,)))
    return -best, g1


# --- the 2-core functions h, psi, g_star ----------------------------------

def h_psi(dist: WeightDist, x: float):
    """(h, psi, h', psi') at x in (0, 1).

    h' shares its zero set with psi' (psi' = -rho * h'), which causes the
    mirrored geometry of the two curves and makes local minima of h the only
    possible jump targets of g_star.
    """
    if not 0.0 < x < 1.0:
        raise InvalidParam(f"x {x} outside (0, 1)")
    x = min(x, X_HI)
    r0 = dist.pgf(x)
    r1 = dist.pgf(x, 1)
    lg = math.log1p(-x)
    if r1 <= 0.0:  # double underflow at tiny x for heavy minimum weights
        psi = x + (1.0 + x / dist.min_weight - x) * lg
        return math.inf, psi, -math.inf, 0.0
    r2 = dist.pgf(x, 2)
    h = -lg / r1
    psi = x + (1.0 + r0 / r1 - x) * lg
    hp = (1.0 / r1) * (1.0 / (1.0 - x) + (r2 / r1) * lg)
    psip = -r0 * hp
    return h, psi, hp, psip


def _h(dist: WeightDist, x: float) -> float:
    x = min(x, X_HI)
    r1 = dist.pgf(x, 1)
    if r1 <= 0.0:
        return math.inf
    return -math.log1p(-x) / r1


def _ratio(dist: WeightDist, x: float) -> float:
    # rho(x) / rho'(x), or its limit x / min_weight where rho'(x) underflows
    r1 = dist.pgf(x, 1)
    return dist.pgf(x) / r1 if r1 > 0.0 else x / dist.min_weight


def _psi(dist: WeightDist, x: float) -> float:
    if x <= 0.0:
        return 0.0  # continuous extension psi(0) = 0
    x = min(x, X_HI)
    return x + (1.0 + _ratio(dist, x) - x) * math.log1p(-x)


def _h_array(dist: WeightDist, xs: np.ndarray) -> np.ndarray:
    # _h over an array of x in (0, 1)
    xs = np.minimum(xs, X_HI)
    with np.errstate(divide="ignore", over="ignore"):
        return -np.log1p(-xs) / dist.pgf(xs, 1)  # r1 = 0 gives inf, as in _h


def _ratio_array(dist: WeightDist, xs: np.ndarray) -> np.ndarray:
    # _ratio over an array of x
    r1 = dist.pgf(xs, 1)
    pos = r1 > 0.0
    return np.where(pos, dist.pgf(xs) / np.where(pos, r1, 1.0), xs / dist.min_weight)


def _psi_array(dist: WeightDist, xs: np.ndarray) -> np.ndarray:
    # _psi over an array of x in (0, 1)
    xs = np.minimum(xs, X_HI)
    return xs + (1.0 + _ratio_array(dist, xs) - xs) * np.log1p(-xs)


def _h_landscape(dist: WeightDist):
    """One sweep of h over _X_GRID: (alpha_sharp, minima, jumps).

    minima are the interior local minima of h, golden-refined and sorted by
    location; jumps is the jump set of g_star as discontinuities describes
    it.  The jumps reuse the grid values of h, so h is swept only once.
    """
    h = lambda x: _h(dist, x)
    grid = _X_GRID
    vals = _h_array(dist, grid)
    mid = vals[1:-1]
    mins = []
    for i in np.flatnonzero((mid < vals[:-2]) & (mid <= vals[2:])) + 1:
        x, v = _golden_min(h, float(grid[i - 1]), float(grid[i + 1]), X_TOL)
        if not mins or x - mins[-1][0] > 1e-9:
            mins.append((x, v))
    h0 = h(1e-13)
    a_sharp = min(min((v for _, v in mins), default=math.inf), h0)

    kept = []
    best_right = math.inf
    for x, v in reversed(mins):
        if v < best_right - PROMINENCE:
            kept.append((x, v))
            best_right = v
    kept.reverse()
    jumps = []
    for j, (x, v) in enumerate(kept):
        g_left = 0.0
        if j > 0 or h0 <= v:  # min_weight <= 2: the first level set reaches 0
            g_left = _rightmost_crossing_below(dist, v, vals, x)
        jumps.append((v, g_left, x))
    return a_sharp, mins, jumps


def _rightmost_crossing_below(dist, level, vals, x_min):
    # rightmost solution of h = level strictly left of the basin of x_min;
    # vals holds h on _X_GRID.  Start at the grid point just left of x_min
    # and step left to the first point with h <= level (or to point 0).
    grid = _X_GRID
    i = max(int(np.searchsorted(grid, x_min)) - 1, 0)
    below = np.flatnonzero(~(vals[1:i + 1] > level))
    i = int(below[-1]) + 1 if below.size else 0
    lo, hi = _bisect(lambda x: _h(dist, x) <= level, float(grid[i]), float(grid[i + 1]),
                     GSTAR_TOL)
    return 0.5 * (lo + hi)


def alpha_sharp(dist: WeightDist):
    """(inf of h over (0,1), list of interior local minima of h).

    The infimum accounts for the boundary behaviour as x -> 0 (finite for
    min_weight <= 2, diverging for min_weight >= 3).
    """
    a_sharp, mins, _ = _h_landscape(dist)
    return a_sharp, mins


def _h_of_u(dist: WeightDist, u: float) -> float:
    # h on the scale u = -log(1 - x), where it is nearly linear: u / rho'(x).
    r1 = dist.pgf(-math.expm1(-u), 1)
    if r1 <= 0.0:
        return math.inf
    return u / r1


def _psi_of_u(dist: WeightDist, u: float) -> float:
    # psi(1 - e^-u) without forming 1 - x, which keeps full precision even
    # when the root sits within e^-30 of 1 (heavy fixed weights).
    x = -math.expm1(-u)
    if x <= 0.0:
        return 0.0
    return x - u * (math.exp(-u) + _ratio(dist, x))


def _h_of_u_array(dist: WeightDist, us: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        return us / dist.pgf(-np.expm1(-us), 1)  # r1 = 0 gives inf, as in _h_of_u


def _psi_of_u_array(dist: WeightDist, us: np.ndarray) -> np.ndarray:
    xs = -np.expm1(-us)
    return np.where(xs > 0.0, xs - us * (np.exp(-us) + _ratio_array(dist, xs)), 0.0)


_U_HI = 700.0  # e^-u stays a normal double; x = 1 - e^-u rounds to 1.0 past u ~ 37
_U_TOL = 1e-14
_SCAN_BLOCK = 4096  # alphas per batched g_star bisection in the alpha scans


def _g_star_u(dist: WeightDist, alpha: float, minima: list) -> float | None:
    """u-coordinate of g_star(alpha); None when the level set is empty."""
    lo_x = 0.0
    for x, v in minima:
        if v <= alpha:
            lo_x = max(lo_x, x)
    if lo_x == 0.0:
        if _h(dist, 1e-13) > alpha:
            return None
        lo_x = 1e-13
    # exactly one crossing of h = alpha to the right of lo_x: any dip below
    # alpha out there would be a local minimum <= alpha right of lo_x
    if _h_of_u(dist, _U_HI) <= alpha:
        return _U_HI
    lo, hi = _bisect(lambda u: _h_of_u(dist, u) <= alpha, -math.log1p(-lo_x), _U_HI, _U_TOL)
    return 0.5 * (lo + hi)


def _psi_g_star(dist: WeightDist, alpha: float, minima: list) -> float:
    """psi(g_star(alpha)), with psi(0) = 0 below the core onset."""
    u = _g_star_u(dist, alpha, minima)
    return 0.0 if u is None else _psi_of_u(dist, u)


def _psi_g_star_array(dist: WeightDist, alphas: np.ndarray, minima: list) -> np.ndarray:
    """_psi_g_star at each of alphas: the bracket, the tolerance and the
    empty and u = _U_HI cases of _g_star_u, with one bisection in u run on
    the whole array.  Each element halves its own bracket to _U_TOL as the
    scalar route does; a step can go the other way only where the array h
    is within a last-bit difference of alpha."""
    lo_u = np.zeros(alphas.shape)  # u of the rightmost minimum <= alpha; 0 if none
    for x, v in minima:
        u_x = -math.log1p(-x)  # math, not np: the scalar route's bracket
        lo_u[(v <= alphas) & (u_x > lo_u)] = u_x
    empty = lo_u == 0.0
    none = empty & (_h(dist, 1e-13) > alphas)
    lo_u[empty] = -math.log1p(-1e-13)
    top = ~none & (_h_of_u(dist, _U_HI) <= alphas)
    run = ~(none | top)
    a = alphas[run]
    lo, hi = lo_u[run], np.full(a.shape, _U_HI)
    while (active := hi - lo > _U_TOL).any():
        mid = (lo + hi) / 2
        ok = _h_of_u_array(dist, mid) <= a
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
    u = np.full(alphas.shape, _U_HI)
    u[run] = 0.5 * (lo + hi)
    return np.where(none, 0.0, _psi_of_u_array(dist, u))


def _psi_g_star_scan(dist: WeightDist, minima: list, a: float, step: float, a_max: float):
    """(alphas, psi(g_star(alphas))) for alpha = a, a + step, ... up to
    a_max.  np.cumsum adds in sequence, so the alphas are those of a scalar
    loop doing a += step.  The bisection runs on _SCAN_BLOCK alphas at a
    time, which keeps its temporaries small: on the whole scan at once they
    raised the peak memory of a threshold-reports benchmark run by 0.4 MB."""
    n = int((a_max - a) / step) + 2  # one more than fit: rounding may add one
    alphas = np.cumsum(np.r_[a, np.full(max(n - 1, 0), step)])
    alphas = alphas[alphas <= a_max]
    psi = [_psi_g_star_array(dist, alphas[i:i + _SCAN_BLOCK], minima)
           for i in range(0, alphas.size, _SCAN_BLOCK)]
    return alphas, np.concatenate([np.zeros(0), *psi])


def g_star(dist: WeightDist, alpha: float, _minima: list | None = None) -> float:
    """sup{x in (0,1) : h(x) <= alpha}, with sup of the empty set = 0.

    Right-continuous in alpha; jumps exactly at the levels of the local
    minima of h that are visible from the right.
    """
    if alpha < 0:
        raise InvalidParam(f"alpha {alpha} < 0")
    mins = _h_landscape(dist)[1] if _minima is None else _minima
    u = _g_star_u(dist, alpha, mins)
    return 0.0 if u is None else -math.expm1(-u)


def discontinuities(dist: WeightDist) -> list:
    """Jump set of g_star as (alpha, g_left, g_right) triples, alpha ascending.

    A local minimum of h at x with value v produces a jump at alpha = v
    exactly when h stays strictly above v everywhere to the right of x (the
    minimum is "visible from the right"); the jump lands on x.  The first
    entry is always at alpha_sharp.  A minimum counts as visible only if it
    lies more than PROMINENCE below every minimum to its right.
    """
    return _h_landscape(dist)[2]


def alpha_bar(dist: WeightDist, step: float = ALPHA_BAR_STEP) -> float:
    """inf{alpha > alpha_sharp : psi(g_star(alpha)) < 0}.

    Scans alpha up to ALPHA_BAR_MAX at the given step for the first sign
    change of psi o g_star, then bisects to ALPHA_BAR_TOL.  If the change
    happens across a jump of g_star, the jump point itself is returned.  The
    default step resolves sign windows a few 1e-4 wide; lower it for even
    closer-spaced features.
    """
    if dist.min_weight < 3:
        raise InvalidParam("alpha_bar requires min_weight >= 3")
    return _alpha_bar(dist, step, _h_landscape(dist))


def _alpha_bar(dist: WeightDist, step: float, landscape) -> float:
    a_sharp, mins, jumps = landscape
    alphas, psi = _psi_g_star_scan(dist, mins, a_sharp + step, step, ALPHA_BAR_MAX + step)
    neg = np.flatnonzero(~(psi >= 0.0))  # NaN counts as negative
    if not neg.size:
        raise NoConvergence(
            f"psi(g_star(alpha)) never negative on ({a_sharp}, {ALPHA_BAR_MAX}]")
    i = int(neg[0])
    prev, a = (float(alphas[i - 1]) if i else a_sharp), float(alphas[i])
    lo, hi = _bisect(lambda al: _psi_g_star(dist, al, mins) >= 0.0, prev, a, ALPHA_BAR_TOL)
    a_bar = 0.5 * (lo + hi)
    for alpha_d, _, _ in jumps:
        if abs(a_bar - alpha_d) <= 10.0 * ALPHA_BAR_TOL:
            return alpha_d
    return a_bar


def psi_roots(dist: WeightDist) -> list:
    """All roots of psi in (0, 1), by grid sign changes plus bisection."""
    grid = _X_GRID
    vals = _psi_array(dist, grid)
    pos = vals > 0.0
    roots = []
    for i in np.flatnonzero((vals[1:] == 0.0) | (pos[1:] != pos[:-1])) + 1:
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        else:
            ref = bool(pos[i - 1])
            lo, hi = _bisect(lambda x: (_psi(dist, x) > 0.0) == ref,
                             float(grid[i - 1]), float(grid[i]), X_TOL)
            roots.append(0.5 * (lo + hi))
    return [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-9]


def psi_gstar_sign_pattern(dist: WeightDist) -> str:
    """Condensed sign sequence of psi(g_star(alpha)) for alpha in
    (alpha_sharp, 1.02], sampled every 2e-5, e.g. "+-" for a single
    transition or "+-+-" for the re-entrant mixtures."""
    a_sharp, mins, _ = _h_landscape(dist)
    step = 2e-5
    _, psi = _psi_g_star_scan(dist, mins, a_sharp + step, step, 1.02)
    pos = psi[(psi > 0.0) | (psi < 0.0)] > 0.0  # zeros carry no sign
    runs = pos[np.r_[True, pos[1:] != pos[:-1]]] if pos.size else pos
    return "".join("+" if p else "-" for p in runs)


# --- fixed-weight root x*_r by sandwich iteration ---------------------------

def x_star_iteration(r: int, steps: int = 5000):
    """The unique root of psi in (0,1) for the fixed weight r >= 3, bracketed
    by the monotone iteration of i(x) = 1 - exp(-x / (1 - x (r-1)/r)).

    Starting from a_0 = (r-2)/(r-1) and b_0 = 1 the lower sequence increases
    and the upper decreases toward the root; iteration stops once they agree
    to 1e-14.  Returns (x_star, lower_seq, upper_seq).
    """
    if r < 3:
        raise InvalidParam(f"r {r} < 3")
    theta = (r - 1.0) / r

    def step_fn(x):
        return 1.0 - math.exp(-x / (1.0 - theta * x))

    a = (r - 2.0) / (r - 1.0)
    b = 1.0
    lower, upper = [a], [b]
    for _ in range(steps):
        if b - a < 1e-14:
            return 0.5 * (a + b), lower, upper
        a2, b2 = step_fn(a), step_fn(b)
        if a2 <= a and b2 >= b:
            break  # float fixpoint reached on both sides
        if a2 > a:
            a = a2
            lower.append(a)
        if b2 < b:
            b = b2
            upper.append(b)
    if b - a < 1e-14:
        return 0.5 * (a + b), lower, upper
    raise NoConvergence(f"sandwich stalled at width {b - a:.3e} after {steps} steps")


# --- 2-core limit quantities ------------------------------------------------

@dataclass(frozen=True)
class CoreTheory:
    """Almost-sure limits for the 2-core of M(n, alpha n)."""

    alpha: float
    g_star: float
    mu: float               # alpha rho'(1): mean column degree
    nu: float               # alpha rho'(g*): core column-degree parameter
    core_row_frac: float    # alpha rho(g*)
    occupied_col_frac: float  # 1 - e^-nu (1 + nu)
    incidence_frac: float   # -g* log(1 - g*) = alpha g* rho'(g*)
    aspect_sign: int        # sign of psi(g*(alpha))

    def col_degree_pmf(self, d_max: int = 20) -> dict:
        """Limiting core column-degree law: Poisson(nu) off {0, 1}, with the
        removed mass sitting at degree 0 (columns are never deleted)."""
        nu = self.nu
        pmf = {0: math.exp(-nu) * (1.0 + nu), 1: 0.0}
        for d in range(2, d_max + 1):
            pmf[d] = math.exp(-nu) * nu**d / math.factorial(d)
        return pmf


def core_theory(dist: WeightDist, alpha: float) -> CoreTheory:
    """Evaluate the 2-core limit fractions at the given aspect ratio alpha."""
    if dist.min_weight < 3:
        raise InvalidParam("core limit theory requires min_weight >= 3")
    _, mins, jumps = _h_landscape(dist)
    for alpha_d, _, _ in jumps:
        if abs(alpha - alpha_d) < 1e-9:
            warnings.warn(
                f"alpha={alpha} sits on a discontinuity of g_star; "
                "the core limits are not continuous here", stacklevel=2)
    u = _g_star_u(dist, alpha, mins)
    mu = alpha * dist.pgf(1.0, 1)
    if u is None:
        return CoreTheory(alpha, 0.0, mu, 0.0, 0.0, 0.0, 0.0, 0)
    g = -math.expm1(-u)
    nu = alpha * dist.pgf(g, 1)
    rows = alpha * dist.pgf(g)
    cols = 1.0 - math.exp(-nu) * (1.0 + nu)
    inc = g * u  # -g log(1 - g), with u carrying the full precision of log(1-g)
    if abs(inc - alpha * g * dist.pgf(g, 1)) > 1e-10:
        raise Inconsistent(
            f"incidence identity violated at alpha={alpha}: "
            f"{inc} vs {alpha * g * dist.pgf(g, 1)}")
    p = _psi_of_u(dist, u)  # psi(g_star(alpha)), reusing u
    sign = (p > 0) - (p < 0)
    return CoreTheory(alpha, g, mu, nu, rows, cols, inc, sign)


# --- large-r asymptotics (arbitrary precision) ------------------------------

def _x_star_mp(r: int):
    theta = mp.mpf(r - 1) / r
    step_fn = lambda x: 1 - mp.exp(-x / (1 - theta * x))
    a, b = mp.mpf(r - 2) / (r - 1), mp.mpf(1)
    for _ in range(20000):
        a, b = step_fn(a), step_fn(b)
        if b - a < mp.mpf(2) ** (10 - mp.mp.prec):
            break
    return (a + b) / 2


def threshold_asymptotics(r_max: int = 12, precision: int = 256) -> list:
    """Scaled threshold gaps for r = 3..r_max, computed in arbitrary precision:
    (1 - alpha_star_r) e^r log 2 and (1 - alpha_bar_r) e^r, both -> 1."""
    if r_max > 16:
        raise InvalidParam("r_max > 16 serves no purpose; the gaps are < 1e-7 there")
    rows = []
    with mp.workprec(precision):
        for r in range(3, r_max + 1):
            a_star = _alpha_star_lambda_system(r, precision=precision)
            xs = _x_star_mp(r)
            a_bar = -mp.log(1 - xs) / (r * xs ** (r - 1))
            rows.append({
                "r": r,
                "alpha_star": float(a_star),
                "alpha_bar": float(a_bar),
                "alpha_star_str": mp.nstr(a_star, 30),
                "alpha_bar_str": mp.nstr(a_bar, 30),
                "star_scaled": float((1 - a_star) * mp.e**r * mp.log(2)),
                "bar_scaled": float((1 - a_bar) * mp.e**r),
            })
    return rows


# --- assembled report --------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    alpha_sharp: float
    alpha_star: float
    alpha_bar: float | None
    x_star: float | None
    x_star_is_psi_root: bool
    bar_crossing_transversal: bool | None
    discontinuities: tuple
    gamma0: float | None
    beta0: float | None
    witness_alpha: float | None
    tolerances: dict = field(default_factory=dict)


def threshold_report(dist: WeightDist, witness_alpha: float | None = None,
                     scan_step: float = ALPHA_BAR_STEP) -> ThresholdReport:
    """Compute every threshold for one weight distribution.

    alpha_bar and x_star require min_weight >= 3 and are None otherwise
    (the 2-core transition is not defined for weights 1 and 2).
    """
    landscape = _h_landscape(dist)
    a_sharp, mins, jumps = landscape
    a_star = alpha_star(dist)
    a_bar = x_st = transversal = None
    is_root = False
    if dist.min_weight >= 3:
        a_bar = _alpha_bar(dist, scan_step, landscape)
        x_st = g_star(dist, a_bar, mins)
        is_root = abs(_psi_g_star(dist, a_bar, mins)) <= 1e-6
        d = 10.0 * ALPHA_BAR_TOL
        transversal = (_psi_g_star(dist, a_bar - d, mins) > 0.0
                       > _psi_g_star(dist, a_bar + d, mins))
        # the ordering can only be certified to the alpha_bar bisection
        # resolution; the true gap drops below it around fixed weight 22
        if not (a_star <= a_bar + 10 * ALPHA_BAR_TOL and a_bar <= 1.0 + 1e-9):
            raise Inconsistent(
                f"threshold ordering violated: alpha_star={a_star}, alpha_bar={a_bar}")
    if dist.min_weight >= 2:
        if not (0.5 - 1e-9 <= a_star <= 1.0):
            raise Inconsistent(f"alpha_star={a_star} outside [1/2, 1] for min_weight >= 2")
    gamma0 = beta0 = None
    if witness_alpha is not None:
        _, gamma0, beta0 = F_of_alpha(dist, witness_alpha)
    return ThresholdReport(
        alpha_sharp=a_sharp,
        alpha_star=a_star,
        alpha_bar=a_bar,
        x_star=x_st,
        x_star_is_psi_root=is_root,
        bar_crossing_transversal=transversal,
        discontinuities=tuple(jumps),
        gamma0=gamma0,
        beta0=beta0,
        witness_alpha=witness_alpha,
        tolerances={
            "tol_F": TOL_F,
            "alpha_bisect": ALPHA_TOL,
            "gamma_refine": GAMMA_TOL,
            "g_star_bisect": GSTAR_TOL,
            "alpha_bar_bisect": ALPHA_BAR_TOL,
            "alpha_bar_scan_step": scan_step,
            "jump_prominence": PROMINENCE,
        },
    )
