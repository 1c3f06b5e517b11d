"""Numerical evaluation of the analytic threshold machinery.

Everything is driven by three functions of the weight pgf rho:

* F(alpha) = log sup_gamma (1 + rho(1-2 gamma))^alpha / (2 gamma^gamma (1-gamma)^(1-gamma)),
  whose first zero-departure locates alpha_star (growth onset of the expected
  null-vector count);
* h(x) = -log(1-x) / rho'(x) and psi(x) = x + (1 + rho(x)/rho'(x) - x) log(1-x),
  which control the 2-core: g_star(alpha) = sup{x : h(x) <= alpha} is the
  peeling survival parameter, alpha_sharp = inf h is the core-onset
  threshold, and alpha_bar (first alpha past alpha_sharp with
  psi(g_star(alpha)) < 0) is the onset of a core with more rows than
  occupied columns.

The 2-core quantities are computed on u = -log(1 - x), which keeps full
precision near x = 1, where heavy weights act; only h_psi takes an x.  The
h-landscape of a distribution is one sweep of h over a fixed u grid.  It
gives alpha_sharp, the local minima of h (which g_star needs) and the jump
set of g_star.  Each public function computes it once per call and passes
it down, so threshold_report and core_theory sweep h once each.

g_star takes its values on the branch of h that is visible from the right,
and along that branch alpha = h(x) rises with x.  So alpha_bar and the
psi(g_star) sign pattern are read off that branch, with no scan in alpha:
the sign can change only at a jump of g_star or at a root of psi on the
branch.  The roots of psi have one route, a sweep of psi over the same u
grid; psi_roots returns them as x.

All one-dimensional optima use a dense bracket grid (log-refined toward the
interval ends) followed by golden-section or bisection refinement; nothing
assumes unimodality, since h and psi are genuinely multi-modal for mixture
weights.  The endpoint convention 0^0 = 1 is applied throughout.

The grid sweeps of h and psi are numpy arrays; F_gamma is still swept
point by point.  The scalar functions (_h_of_u, _psi_of_u, _g_star_u,
_psi_g_star, F_gamma) remain: they do every golden-section and bisection
refinement, and the tests use them as the oracle for the arrays.  numpy's
log, exp and pow may differ from math's in the last bit, so an array value
can differ from its scalar counterpart by a few ulps.

The fixed-weight routines x_star_iteration (the root x*_r of psi) and
_alpha_star_lambda_system (alpha_star_r) each have one body that runs in
float or, given a precision in bits, in mpf; threshold_asymptotics uses the
mpf route.
"""

from __future__ import annotations

import contextlib
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
ALPHA_BAR_TOL = 1e-9   # alpha_bar resolution the report's checks assume
ROUTE_TOL = 1e-6       # agreement required between independent alpha_star routes
STATIONARY_TOL = 1e-11  # log-gamma bisection resolution of the stationary alpha_star route
LAMBDA_TOL = 1e-14     # lambda bisection resolution of the lambda-system alpha_star route
ROUTES_R_MAX = 159     # heaviest fixed weight whose alpha_star routes hold their roots
STAR_ONE_R = 34        # from this fixed weight on, 1 - alpha_star_r is below the routes' error
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
    """Halve [lo, hi] to width tol, or until lo and hi are adjacent numbers,
    moving lo to each midpoint where pred holds and hi to the others; returns
    the final bracket.  Works on floats and on mpf."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break  # adjacent floats: tol is below their spacing (u > 64 for _U_TOL)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _unit_grid(n: int, lo_exp: int = 44) -> tuple:
    pts = [i / n for i in range(1, n)]
    pts += [2.0**-e for e in range(int(math.log2(n)), lo_exp)]
    pts += [1.0 - 2.0**-e for e in range(int(math.log2(n)), lo_exp)]
    return tuple(sorted(set(pts)))


def _frozen(points) -> np.ndarray:
    a = np.array(points, dtype=np.float64)
    a.flags.writeable = False
    return a


_GAMMA_GRID = _frozen(sorted({0.5 * x for x in _unit_grid(2048, lo_exp=56)} | {0.0, 0.5}))


# --- the rate function F ---------------------------------------------------

def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0  # 0^0 = 1 convention


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
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise InvalidParam(f"alpha {alpha} is not a finite number >= 0")
    # swept point by point with the scalar F_gamma: ROADMAP direction 1 says
    # why the array sweep waits (at its speed the benchmark's mixture draw hangs)
    f = lambda g: F_gamma(dist, alpha, g)
    grid = _GAMMA_GRID
    vals = np.array([F_gamma(dist, alpha, g) for g in grid.tolist()])
    # candidates (value, gamma): both ends of the grid, and every interior
    # grid local maximum, golden-refined.  A point whose neighbours both hold
    # its own value is a flat run, not a peak, and is not refined.
    mid, left, right = vals[1:-1], vals[:-2], vals[2:]
    peaks = (mid >= left) & (mid >= right) & ~((mid == left) & (mid == right))
    cands = [(f(float(grid[i])), float(grid[i])) for i in (0, -1)]
    for i in np.flatnonzero(peaks) + 1:
        g0, v0 = _golden_min(lambda g: -f(g), float(grid[i - 1]), float(grid[i + 1]),
                             GAMMA_TOL)
        cands.append((-v0, g0))
    best = max(v for v, _ in cands)
    gamma0 = min(g for v, g in cands if v >= best - 1e-14)
    r = dist.pgf(1.0 - 2.0 * gamma0)
    return best, gamma0, r / (1.0 + r)


def alpha_star(dist: WeightDist) -> float:
    """inf{alpha >= 0 : F(alpha) > 0} by bisection against F > TOL_F.

    For a fixed weight 3 <= r <= ROUTES_R_MAX the result is cross-checked
    against two independent routes (the stationary-point equation in gamma,
    and the hyperbolic-substitution system); disagreement beyond ROUTE_TOL
    raises Inconsistent.  1 - alpha_star_r ~ e^-r / log 2 falls below the
    few-ulp error of the lambda-system route from r = STAR_ONE_R on, so the
    result is 1.0 there, which keeps it non-decreasing in r.  Past
    ROUTES_R_MAX the lambda-system root, near lambda = r/2, leaves its
    bracket [0.05, 80] (and tanh(0.05)^-r overflows from r = 237): there
    the bisection alone runs.
    F(0) = sup_gamma (H(gamma) - log 2) = 0, so the bisection starts at
    alpha = 0.
    Each F_gamma(alpha) = alpha A - B is affine in alpha, with
    A = log(1 + rho(1 - 2 gamma)) and B = log 2 - H(gamma), so
    alpha_star = min(1, inf B/A).  As gamma -> 1/2, B/A tends to 0 with
    weight-1 mass, and to 1/(2 p_2) with weight-2 mass and none of weight 1.
    When that edge limit is the infimum, F grows only quadratically past it
    and the bisection lands about sqrt(TOL_F) high, so the result is capped
    at the edge limit.
    """
    hi = 1.0 if F_of_alpha(dist, 1.0)[0] > TOL_F else 2.0  # alpha_star <= 1; guard anyway
    lo, hi = _bisect(lambda a: F_of_alpha(dist, a)[0] <= TOL_F, 0.0, hi, ALPHA_TOL)
    a_sup = 0.5 * (lo + hi)
    r = dist.min_weight if len(dist.atoms) == 1 else 0  # 0 for a mixture
    if 3 <= r <= ROUTES_R_MAX:
        a_stat = _alpha_star_stationary(r)
        a_lam = float(_alpha_star_lambda_system(r))
        if abs(a_sup - a_stat) > ROUTE_TOL or abs(a_sup - a_lam) > ROUTE_TOL:
            raise Inconsistent(
                f"alpha_star routes disagree at r={r}: sup={a_sup!r}, "
                f"stationary={a_stat!r}, lambda-system={a_lam!r}")
        a_sup = a_lam  # best-conditioned route once agreement is established
    p = dict(dist.atoms)
    edge = 0.0 if 1 in p else 1.0 / (2.0 * float(p[2])) if 2 in p else 1.0
    # alpha_star <= 1 always; the bisection can overshoot by ~1e-12
    return 1.0 if r >= STAR_ONE_R else min(a_sup, edge, 1.0)


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
                     math.log(1e-300), math.log(0.45), STATIONARY_TOL)
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
    return solve(0.05, 80.0, LAMBDA_TOL)


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


def _ratio(dist: WeightDist, x: float) -> float:
    # rho(x) / rho'(x), or its limit x / min_weight where rho'(x) underflows
    r1 = dist.pgf(x, 1)
    return dist.pgf(x) / r1 if r1 > 0.0 else x / dist.min_weight


def _ratio_array(dist: WeightDist, xs: np.ndarray) -> np.ndarray:
    # _ratio over an array of x
    r1 = dist.pgf(xs, 1)
    pos = r1 > 0.0
    return np.where(pos, dist.pgf(xs) / np.where(pos, r1, 1.0), xs / dist.min_weight)


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


_U_HI = 700.0  # e^-u stays a normal double; x = 1 - e^-u rounds to 1.0 past u ~ 37
_U_TOL = 1e-14


# _unit_grid(8192) mapped to u, then a coarse tail to _U_HI, where h and psi
# are almost linear in u
_U_GRID = -np.log1p(-np.array(_unit_grid(8192)))
_U_GRID = _frozen(np.r_[_U_GRID, np.geomspace(_U_GRID[-1], _U_HI, 129)[1:]])
# 1 - e^-u on _U_GRID by math.expm1, as the scalar refinements compute it:
# numpy's expm1 may differ in the last bit, which rho' magnifies k-fold
_U_GRID_X = _frozen([-math.expm1(-u) for u in _U_GRID.tolist()])


def _h_of_u_array(dist: WeightDist) -> np.ndarray:
    # _h_of_u over _U_GRID
    with np.errstate(divide="ignore", over="ignore"):
        return _U_GRID / dist.pgf(_U_GRID_X, 1)  # r1 = 0 gives inf, as in _h_of_u


def _psi_of_u_array(dist: WeightDist) -> np.ndarray:
    # _psi_of_u over _U_GRID
    us, xs = _U_GRID, _U_GRID_X
    return np.where(xs > 0.0, xs - us * (np.exp(-us) + _ratio_array(dist, xs)), 0.0)


def _h_landscape(dist: WeightDist):
    """One sweep of h over _U_GRID: (alpha_sharp, minima, jumps), all in u.

    minima are the interior local minima of h as (u, h) pairs, golden-refined
    and sorted by location; jumps are the jumps of g_star as (alpha, u_left,
    u_right) triples, which discontinuities returns in x.  The jumps reuse
    the grid values of h, so h is swept only once.
    """
    h = lambda u: _h_of_u(dist, u)
    grid = _U_GRID
    vals = _h_of_u_array(dist)
    mid = vals[1:-1]
    mins = []
    for i in np.flatnonzero((mid < vals[:-2]) & (mid <= vals[2:])) + 1:
        u, v = _golden_min(h, float(grid[i - 1]), float(grid[i + 1]), _U_TOL)
        if not mins or u - mins[-1][0] > 1e-9:
            mins.append((u, v))
    h0 = h(1e-13)  # stands for the limit of h as x -> 0
    a_sharp = min(min((v for _, v in mins), default=math.inf), h0)

    kept = []
    best_right = math.inf
    for u, v in reversed(mins):
        if v < best_right - PROMINENCE:
            kept.append((u, v))
            best_right = v
    kept.reverse()
    jumps = []
    for j, (u, v) in enumerate(kept):
        u_left = 0.0
        if j > 0 or h0 <= v:  # min_weight <= 2: the first level set reaches 0
            u_left = _rightmost_crossing_below(dist, v, vals, u)
        jumps.append((v, u_left, u))
    return a_sharp, mins, jumps


def _rightmost_crossing_below(dist, level, vals, u_min):
    # rightmost solution of h = level strictly left of the basin of u_min;
    # vals holds h on _U_GRID.  Start at the grid point just left of u_min
    # and step left to the first point with h <= level (or to point 0).
    grid = _U_GRID
    i = max(int(np.searchsorted(grid, u_min)) - 1, 0)
    below = np.flatnonzero(~(vals[1:i + 1] > level))
    i = int(below[-1]) + 1 if below.size else 0
    lo, hi = _bisect(lambda u: _h_of_u(dist, u) <= level, float(grid[i]), float(grid[i + 1]),
                     _U_TOL)
    return 0.5 * (lo + hi)


def _x_jumps(jumps: list) -> list:
    # the jumps of _h_landscape with their landing points as x = 1 - e^-u
    return [(a, -math.expm1(-u_left), -math.expm1(-u_right)) for a, u_left, u_right in jumps]


def alpha_sharp(dist: WeightDist):
    """(inf of h over (0,1), list of interior local minima of h as (x, h)).

    The infimum accounts for the boundary behaviour as x -> 0 (finite for
    min_weight <= 2, diverging for min_weight >= 3).
    """
    a_sharp, mins, _ = _h_landscape(dist)
    return a_sharp, [(-math.expm1(-u), v) for u, v in mins]


def _psi_u_roots(dist: WeightDist) -> list:
    """(u0, psi > 0 left of u0) at each sign change of psi over _U_GRID,
    ascending, with u0 bisected to _U_TOL by the scalar _psi_of_u."""
    us = _U_GRID
    pos = _psi_of_u_array(dist) > 0.0
    roots = []
    for i in np.flatnonzero(pos[1:] != pos[:-1]) + 1:
        ref = bool(pos[i - 1])
        lo, hi = _bisect(lambda u: (_psi_of_u(dist, u) > 0.0) == ref,
                         float(us[i - 1]), float(us[i]), _U_TOL)
        roots.append((0.5 * (lo + hi), ref))
    return roots


def _g_star_u(dist: WeightDist, alpha: float, minima: list) -> float | None:
    """u-coordinate of g_star(alpha) from the (u, h) minima of _h_landscape;
    None when the level set is empty.  Every g_star route checks alpha here."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidParam(f"alpha {alpha} is not a finite number >= 0")
    lo = max((u for u, v in minima if v <= alpha), default=0.0)
    if lo == 0.0:
        if _h_of_u(dist, 1e-13) > alpha:
            return None
        lo = 1e-13
    # exactly one crossing of h = alpha to the right of lo: any dip below
    # alpha out there would be a local minimum <= alpha right of lo
    if _h_of_u(dist, _U_HI) <= alpha:
        # past _U_HI x rounds to 1, where h = u / E[W]: h crosses alpha there,
        # at u = alpha E[W]
        return alpha * dist.mean()
    lo, hi = _bisect(lambda u: _h_of_u(dist, u) <= alpha, lo, _U_HI, _U_TOL)
    return 0.5 * (lo + hi)


def _psi_g_star(dist: WeightDist, alpha: float, minima: list) -> float:
    """psi(g_star(alpha)), with psi(0) = 0 below the core onset."""
    u = _g_star_u(dist, alpha, minima)
    return 0.0 if u is None else _psi_of_u(dist, u)


def g_star(dist: WeightDist, alpha: float) -> float:
    """sup{x in (0,1) : h(x) <= alpha}, with sup of the empty set = 0.

    Right-continuous in alpha; jumps exactly at the levels of the local
    minima of h that are visible from the right.
    """
    u = _g_star_u(dist, alpha, _h_landscape(dist)[1])
    return 0.0 if u is None else -math.expm1(-u)


def g_star_curve(dist: WeightDist, points: int, lo: float | None = None,
                 hi: float | None = None) -> list:
    """(alpha, g_star(alpha), psi(g_star(alpha))) rows for figures.

    points + 1 >= 2 evenly spaced alpha from lo (default alpha_sharp) to hi
    (default 1.02), then, for each jump of g_star with lo <= alpha <= hi,
    one row on each side of it: g_left, then g_right.  h is swept once, and
    each row's g_star and psi(g_star) come from one bisection in u, as in
    core_theory.
    """
    a_sharp, mins, jumps = _h_landscape(dist)
    lo = a_sharp if lo is None else lo
    hi = 1.02 if hi is None else hi

    def row(a, u):  # u = 0 stands for g_star = 0, where psi(0) = 0
        return a, -math.expm1(-u), _psi_of_u(dist, u)

    alphas = (lo + (hi - lo) * i / points for i in range(points + 1))
    rows = [row(a, _g_star_u(dist, a, mins) or 0.0) for a in alphas]
    rows += [row(a, u) for a, u_left, u_right in jumps if lo <= a <= hi
             for u in (u_left, u_right)]
    return rows


def discontinuities(dist: WeightDist) -> list:
    """Jump set of g_star as (alpha, g_left, g_right) triples, alpha ascending.

    A local minimum of h at x with value v produces a jump at alpha = v
    exactly when h stays strictly above v everywhere to the right of x (the
    minimum is "visible from the right"); the jump lands on x.  The first
    entry is always at alpha_sharp.  A minimum counts as visible only if it
    lies more than PROMINENCE below every minimum to its right.
    """
    return _x_jumps(_h_landscape(dist)[2])


def _psi_events(dist: WeightDist, landscape) -> list:
    """(alpha, sign) at each alpha where the sign of psi(g_star(alpha))
    can change, ascending; sign is the sign from there on.

    g_star only takes values on the branch of h visible from the right, and
    along it alpha = h(x) rises with x (Molloy 2005), so the events are the
    jumps of g_star, after which the sign is that of psi(g_right), and the
    roots of psi on that branch.  Below the first jump g_star = 0 and
    psi(0) = 0.  A root counts when every local minimum of h to its right
    lies above h there; otherwise g_star jumps over it.
    """
    if dist.min_weight < 3:
        raise InvalidParam("alpha_bar and the psi(g_star) sign pattern require min_weight >= 3")
    _, mins, jumps = landscape
    events = [(alpha_d, int(np.sign(_psi_of_u(dist, u)))) for alpha_d, _, u in jumps]
    for u0, was_pos in _psi_u_roots(dist):
        a0 = _h_of_u(dist, u0)
        if all(v > a0 for u, v in mins if u > u0):
            events.append((a0, -1 if was_pos else 1))
    return sorted(events)


def alpha_bar(dist: WeightDist) -> float:
    """inf{alpha > alpha_sharp : psi(g_star(alpha)) < 0}.

    Read off the visible branch of h, with no scan in alpha: the alpha of
    the first jump of g_star that lands where psi < 0, or of the first root
    of psi on that branch where psi turns negative, whichever comes first.
    A root is bisected to _U_TOL in u = -log(1 - x), so for the fixed
    weights r = 3..16 alpha_bar is within 1e-15 of its closed form.
    """
    return _alpha_bar(dist, _h_landscape(dist))


def _alpha_bar(dist: WeightDist, landscape) -> float:
    for alpha, sign in _psi_events(dist, landscape):
        if sign < 0:
            return alpha
    # Once x = 1 - e^-u rounds to 1 (u > 37), psi(u) = 1 - u / E[W] to within
    # u e^-u.  So psi stays positive up to _U_HI only when E[W] > _U_HI, and
    # its root is then at u = E[W], where h = E[W] / rho'(1) = 1.
    if dist.mean() > _U_HI:
        return 1.0
    raise NoConvergence(f"psi(g_star(alpha)) never negative for u up to {_U_HI}")


def psi_roots(dist: WeightDist) -> list:
    """All roots of psi in (0, 1), ascending: the sign changes of psi on the
    u = -log(1 - x) scale that alpha_bar reads, returned as x = 1 - e^-u0."""
    return [-math.expm1(-u0) for u0, _ in _psi_u_roots(dist)]


def psi_gstar_sign_pattern(dist: WeightDist) -> str:
    """Condensed sign sequence of psi(g_star(alpha)) for alpha in
    (alpha_sharp, 1.02], e.g. "+-" for a single transition or "+-+-" for
    the re-entrant mixtures.  Read off the visible branch of h as alpha_bar
    is, so no sign window is too narrow to show."""
    signs = [s for a, s in _psi_events(dist, _h_landscape(dist)) if a <= 1.02 and s]
    runs = [s for i, s in enumerate(signs) if i == 0 or s != signs[i - 1]]
    return "".join("+" if s > 0 else "-" for s in runs)


# --- fixed-weight root x*_r by sandwich iteration ---------------------------

def x_star_iteration(r: int, steps: int = 5000, precision: int = 0):
    """The unique root of psi in (0,1) for the fixed weight r >= 3, bracketed
    by the monotone iteration of i(x) = 1 - exp(-x / (1 - x (r-1)/r)).

    Starting from a_0 = (r-2)/(r-1) and b_0 = 1 the lower sequence increases
    and the upper decreases toward the root; iteration stops once they agree
    to 1e-14, or, with precision > 0, runs in mpf at that many bits and stops
    at 2^(10 - precision).  Raises NoConvergence when the two sequences stall
    apart or steps run out.  Returns (x_star, lower_seq, upper_seq).
    """
    if r < 3:
        raise InvalidParam(f"r {r} < 3")
    ctx = mp if precision else math
    num = mp.mpf if precision else float
    with mp.workprec(precision) if precision else contextlib.nullcontext():
        theta = num(r - 1) / r
        tol = mp.mpf(2) ** (10 - precision) if precision else 1e-14

        def step_fn(x):
            return 1 - ctx.exp(-x / (1 - theta * x))

        a = num(r - 2) / (r - 1)
        b = num(1)
        lower, upper = [a], [b]
        for _ in range(steps):
            if b - a < tol:
                return (a + b) / 2, lower, upper
            a2, b2 = step_fn(a), step_fn(b)
            if a2 <= a and b2 >= b:
                break  # fixpoint of the number type reached on both sides
            if a2 > a:
                a = a2
                lower.append(a)
            if b2 < b:
                b = b2
                upper.append(b)
        if b - a < tol:
            return (a + b) / 2, lower, upper
    raise NoConvergence(f"sandwich stalled at width {float(b - a):.3e} after {steps} steps")


# --- 2-core limit quantities ------------------------------------------------

@dataclass(frozen=True)
class CoreTheory:
    """Almost-sure limits for the 2-core of M(n, alpha n)."""

    alpha: float
    g_star: float
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
    if u is None:
        return CoreTheory(alpha, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
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
    return CoreTheory(alpha, g, nu, rows, cols, inc, sign)


# --- large-r asymptotics (arbitrary precision) ------------------------------

def threshold_asymptotics(r_max: int = 12) -> list:
    """Scaled threshold gaps for r = 3..r_max, computed in 256-bit precision:
    (1 - alpha_star_r) e^r log 2 and (1 - alpha_bar_r) e^r, both -> 1."""
    if r_max > 16:
        raise InvalidParam("r_max > 16 serves no purpose; the gaps are < 1e-7 there")
    rows = []
    precision = 256
    with mp.workprec(precision):
        for r in range(3, r_max + 1):
            a_star = _alpha_star_lambda_system(r, precision=precision)
            xs = x_star_iteration(r, precision=precision)[0]
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


def threshold_report(dist: WeightDist, witness_alpha: float | None = None) -> ThresholdReport:
    """Compute every threshold for one weight distribution.

    alpha_bar and x_star require min_weight >= 3 and are None otherwise
    (the 2-core transition is not defined for weights 1 and 2).

    tolerances names each resolution and slack the report applies; its star_*
    keys apply only to a fixed weight 3 <= r <= ROUTES_R_MAX (see alpha_star).
    """
    landscape = _h_landscape(dist)
    a_sharp, mins, jumps = landscape
    a_star = alpha_star(dist)
    a_bar = x_st = transversal = None
    is_root = False
    if dist.min_weight >= 3:
        a_bar = _alpha_bar(dist, landscape)
        u = _g_star_u(dist, a_bar, mins)  # one bisection gives g_star and psi there
        x_st, psi_bar = (0.0, 0.0) if u is None else (-math.expm1(-u), _psi_of_u(dist, u))
        is_root = abs(psi_bar) <= 1e-6
        d = 10.0 * ALPHA_BAR_TOL
        transversal = (_psi_g_star(dist, a_bar - d, mins) > 0.0
                       > _psi_g_star(dist, a_bar + d, mins))
        # the ordering is certified to 10 ALPHA_BAR_TOL; the true gap drops
        # below that around fixed weight 22
        if not (a_star <= a_bar + d and a_bar <= 1.0 + 1e-9):
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
        discontinuities=tuple(_x_jumps(jumps)),
        gamma0=gamma0,
        beta0=beta0,
        witness_alpha=witness_alpha,
        tolerances={
            "tol_F": TOL_F,
            "alpha_bisect": ALPHA_TOL,
            "gamma_refine": GAMMA_TOL,
            "u_refine": _U_TOL,
            "alpha_bar_check_slack": 10.0 * ALPHA_BAR_TOL,
            "jump_prominence": PROMINENCE,
            "star_route_agreement": ROUTE_TOL,
            "star_stationary_refine": STATIONARY_TOL,
            "star_lambda_refine": LAMBDA_TOL,
        },
    )
