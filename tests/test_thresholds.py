import math
import re
import signal

import mpmath as mp
import numpy as np
import pytest

from conftest import mixture_batch
from gf2rank import thresholds
from gf2rank.errors import InvalidParam, NoConvergence
from gf2rank.thresholds import (
    F_gamma,
    F_of_alpha,
    alpha_bar,
    alpha_sharp,
    alpha_star,
    core_theory,
    discontinuities,
    g_star,
    g_star_curve,
    h_psi,
    psi_gstar_sign_pattern,
    psi_roots,
    threshold_asymptotics,
    threshold_report,
    x_star_iteration,
    _alpha_star_lambda_system,
    _alpha_star_stationary,
)
from gf2rank.weights import WeightDist, parse_rho

W1, W2, W3 = WeightDist.fixed(1), WeightDist.fixed(2), WeightDist.fixed(3)
FIG1 = parse_rho("0.9:3,0.1:24")
FIG2 = parse_rho("0.9183:3,0.04:19,0.0417:41")


def test_F_gamma_endpoints():
    assert F_gamma(W3, 0.7, 0.5) == pytest.approx(0.0, abs=1e-15)
    for alpha in (0.0, 0.5, 2.0):
        assert F_gamma(FIG1, alpha, 0.0) == pytest.approx((alpha - 1) * math.log(2), abs=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda: F_gamma(W3, 0.9, -0.1), "gamma -0.1 outside [0, 1/2]"),
    (lambda: F_gamma(W3, 0.9, 0.6), "gamma 0.6 outside [0, 1/2]"),
    (lambda: threshold_asymptotics(r_max=17), "r_max > 16"),
], ids=["gamma-neg", "gamma-above-half", "asymptotics-r17"])
def test_input_check_raises_invalid_param(call, message):
    with pytest.raises(InvalidParam, match=re.escape(message)):
        call()


def test_F_gamma_matches_high_precision():
    with mp.workprec(200):
        g = mp.mpf("0.1")
        want = 0.9 * mp.log(1 + (1 - 2 * g) ** 3) - mp.log(2) \
            - g * mp.log(g) - (1 - g) * mp.log(1 - g)
    assert F_gamma(W3, 0.9, 0.1) == pytest.approx(float(want), abs=1e-14)


def test_F_of_alpha_zero_below_star():
    for alpha in (0.3, 0.7, 0.889):
        assert abs(F_of_alpha(W3, alpha)[0]) <= 1e-9


def test_F_of_alpha_alpha2_lower_bound():
    for dist in (W1, W3, FIG1):
        assert F_of_alpha(dist, 2.0)[0] >= math.log(2) - 1e-12


def test_F_of_alpha_at_zero_is_zero():
    # F(0) = sup_gamma (H(gamma) - log 2) = 0 whatever the weights, which is
    # why alpha_star's bisection starts at alpha = 0 with no probe of F(0)
    dists = [WeightDist.fixed(r) for r in range(1, 41)]
    dists += mixture_batch(37, 20) + mixture_batch(41, 10, min_weight=1)
    for dist in dists:
        assert abs(F_of_alpha(dist, 0.0)[0]) <= thresholds.TOL_F, dist


def test_F_positive_for_weight_one():
    for alpha in (0.01, 0.1, 0.5):
        assert F_of_alpha(W1, alpha)[0] > 0


def test_F_continuous_nondecreasing():
    for dist in mixture_batch(7, 5):
        prev = -1.0
        last = None
        for alpha in np.linspace(0.0, 2.0, 41):
            v = F_of_alpha(dist, float(alpha))[0]
            assert v >= prev - 1e-12
            if last is not None:
                assert abs(v - last) <= 0.06 * math.log(2) + 1e-9  # Lipschitz-ish step
            prev, last = v, v


def test_beta0_in_range():
    v, g0, b0 = F_of_alpha(W3, 0.95)
    assert v > 0 and 0 < g0 < 0.5 and 0 < b0 < 0.5


@pytest.mark.parametrize("spec, want", [
    ("r=1", 0.0),
    ("r=2", 0.5),
    ("0.001:1,0.999:3", 0.0),
    ("0.7:2,0.3:4", 5 / 7),
    ("0.9:2,0.1:3", 0.552824503175998),  # infimum interior, below the edge's 1/1.8
], ids=["weight1", "weight2", "p1-0.001", "p2-0.7", "interior"])
def test_alpha_star_edge_limit(spec, want):
    # as gamma -> 1/2, B/A tends to 0 with weight-1 mass and to 1/(2 p_2) with
    # weight-2 mass and none of weight 1; F grows only quadratically past such
    # an infimum, so the bisection alone lands about sqrt(TOL_F) = 1e-6 high
    assert alpha_star(parse_rho(spec)) == pytest.approx(want, abs=1e-11)


def test_alpha_star_routes_agree():
    for r in (3, 5, 8):
        a = alpha_star(WeightDist.fixed(r))  # raises Inconsistent on disagreement
        assert abs(a - _alpha_star_stationary(r)) < 1e-6
        assert abs(a - _alpha_star_lambda_system(r)) < 1e-6


def test_alpha_star_stochastic_dominance():
    # s^4 <= s^3 on [0,1] pointwise
    assert alpha_star(WeightDist.fixed(4)) >= alpha_star(W3)
    lighter = WeightDist(((3, 0.5), (5, 0.5)))
    heavier = WeightDist(((5, 0.5), (9, 0.5)))
    assert alpha_star(heavier) >= alpha_star(lighter)


def test_h_psi_fixed3_values():
    x_star = 0.883414
    h, psi, _, _ = h_psi(W3, x_star)
    assert abs(psi) <= 5e-6
    assert h == pytest.approx(0.917935, abs=5e-6)


def test_h_psi_derivative_signs():
    for dist in mixture_batch(17, 20):
        for x in np.linspace(1e-3, 1 - 1e-3, 1000):
            _, _, hp, psip = h_psi(dist, float(x))
            assert psip == pytest.approx(-dist.pgf(float(x)) * hp, rel=1e-9, abs=1e-12)
            if abs(hp) > 1e-12:
                assert (psip > 0) == (hp < 0)


def test_alpha_sharp_fixed3():
    val, mins = alpha_sharp(W3)
    assert val == pytest.approx(0.818469, abs=5e-6)
    assert len(mins) == 1
    assert mins[0][0] == pytest.approx(0.715332, abs=5e-6)


def test_alpha_sharp_fig1():
    val, _ = alpha_sharp(FIG1)
    assert val == pytest.approx(0.908654, abs=5e-5)


def test_alpha_sharp_decays_with_r():
    # alpha_sharp_r -> 0; the paper's own bound h(1 - e^(-alpha r / 2)) gives
    # about 0.414 at r=12, and the computed minimum sits just below it
    vals = [alpha_sharp(WeightDist.fixed(r))[0] for r in (3, 6, 9, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.45
    r = 12
    bound = min((a / 2) / (1 - math.exp(-a * r / 2)) ** (r - 1)
                for a in np.linspace(0.3, 1.2, 200))
    assert vals[-1] <= bound + 1e-9


def test_alpha_sharp_low_weights():
    assert alpha_sharp(W1)[0] == pytest.approx(0.0, abs=1e-9)
    assert alpha_sharp(W2)[0] == pytest.approx(0.5, abs=1e-9)


def test_g_star_zero_below_sharp():
    for alpha in (0.0, 0.5, 0.81):
        assert g_star(W3, alpha) == 0.0


def test_g_star_at_alpha_bar():
    assert g_star(W3, 0.917935) == pytest.approx(0.883414, abs=5e-6)


def test_g_star_monotone_right_continuous():
    mins_alpha = np.linspace(0.7, 2.0, 80)
    prev = -1.0
    for a in mins_alpha:
        g = g_star(FIG1, float(a))
        assert g >= prev - 1e-12
        prev = g
    for a_d, _, g_right in discontinuities(FIG1):
        # argmin localization is sqrt(ulp)-limited, so allow 1e-6 here
        assert g_star(FIG1, a_d) == pytest.approx(g_right, abs=1e-6)
        assert g_star(FIG1, a_d + 1e-9) == pytest.approx(g_right, abs=1e-4)
        assert g_star(FIG1, a_d - 1e-9) < g_right - 1e-3


def test_g_star_tends_to_one():
    assert g_star(W3, 8.0) > 0.999999


def test_h_gstar_identity():
    val, _ = alpha_sharp(FIG1)
    for a in np.linspace(val, 3.0, 60):
        x = g_star(FIG1, float(a))
        h, _, _, _ = h_psi(FIG1, x)
        assert abs(h - a) <= 1e-9


def test_discontinuities_fixed3():
    d = discontinuities(W3)
    assert len(d) == 1
    assert d[0][0] == pytest.approx(0.818469, abs=5e-6)
    assert d[0][1] == 0.0
    assert d[0][2] == pytest.approx(0.715332, abs=5e-6)


def test_discontinuities_fig2_mixture():
    d = discontinuities(parse_rho("0.9183:3,0.04:19,0.0417:41"))
    assert len(d) == 2
    assert d[0][0] == pytest.approx(0.890061, abs=5e-5)
    assert d[1][0] == pytest.approx(0.991044, abs=5e-5)


def test_alpha_bar_fixed3():
    assert alpha_bar(W3) == pytest.approx(0.917935, abs=5e-6)


def test_alpha_bar_needs_min_weight3():
    with pytest.raises(InvalidParam):
        alpha_bar(W2)
    with pytest.raises(InvalidParam):
        psi_gstar_sign_pattern(W2)


def test_alpha_bar_matches_closed_form():
    # alpha_bar_r = h(x*_r) at 256 bits; the root of psi is bisected on the
    # u = -log(1 - x) scale, so the fixed weights keep every digit up to r = 16
    for row in threshold_asymptotics(r_max=16):
        assert abs(alpha_bar(WeightDist.fixed(row["r"])) - row["alpha_bar"]) <= 1e-14, row["r"]


def test_threshold_ordering_random_mixtures():
    # 1e-8 slack: alpha_bar is bisected to 1e-9 and the true gap between the
    # thresholds shrinks like e^-r, falling under that around weight 22
    for dist in mixture_batch(23, 8):
        a_star = alpha_star(dist)
        a_bar = alpha_bar(dist)
        assert a_star <= a_bar + 1e-8
        assert a_bar <= 1.0 + 1e-9


def test_psi_single_root_fixed_weights():
    for r in range(3, 9):
        roots = psi_roots(WeightDist.fixed(r))
        assert len(roots) == 1
        lo = (r - 2) / (r - 1)
        assert lo < roots[0] < 1.0


def test_psi_roots_match_x_star_iteration():
    # the u-scale root keeps full precision where x = 1 - e^-u nears 1
    for r in range(3, 41):
        x_star = x_star_iteration(r)[0]
        roots = psi_roots(WeightDist.fixed(r))
        assert len(roots) == 1 and abs(roots[0] - x_star) <= 1e-14, (r, roots, x_star)


def test_psi_roots_min_weight_2_no_spurious_roots():
    # psi cancels to O(x^3) near 0 when weight 2 is present; rounding noise
    # there must not show up as roots
    for spec, count in (("r=2", 0), ("0.3:2,0.7:5", 2), ("0.2:2,0.8:30", 2)):
        roots = psi_roots(parse_rho(spec))
        assert len(roots) == count and all(x > 1e-6 for x in roots), (spec, roots)


def test_heavy_fixed_weights_return():
    # past u = 64 doubles are further apart than _U_TOL, where a bisection
    # that waited for its bracket to shrink below _U_TOL never ended
    def stop(signum, frame):
        raise TimeoutError("threshold calls at weight 70/100 still running after 60 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(60)
    try:
        w70, w100 = WeightDist.fixed(70), WeightDist.fixed(100)
        a_bar = alpha_bar(w70)
        g = g_star(w100, 0.99)
        core = core_theory(w100, 0.99)
        report = threshold_report(w100)
        roots = psi_roots(w100)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert 1.0 - 1e-12 <= a_bar <= 1.0
    assert g > 1.0 - 1e-12 and core.g_star == g and core.aspect_sign == 1
    assert report.alpha_bar == 1.0 and report.x_star_is_psi_root
    assert len(roots) == 1 and roots[0] > 1.0 - 1e-12


def test_x_star_iteration_r3():
    x, lower, upper = x_star_iteration(3)
    assert x == pytest.approx(0.883414, abs=1e-6)
    assert all(a < b for a, b in zip(lower, lower[1:]))
    assert all(a > b for a, b in zip(upper, upper[1:]))
    assert lower[0] == 0.5 and upper[0] == 1.0


def test_x_star_one_step_bounds_r5():
    r = 5
    x, lower, upper = x_star_iteration(r)
    lo1 = 1 - math.exp(-r * (r - 2) / (2 * (r - 1)))
    up1 = 1 - math.exp(-r)
    assert lower[1] == pytest.approx(lo1, rel=1e-12)
    assert upper[1] == pytest.approx(up1, rel=1e-12)
    assert lo1 < x < up1


def test_x_star_large_r_expansion():
    r = 12
    x, _, _ = x_star_iteration(r)
    approx = 1 - math.exp(-r) - r**2 * math.exp(-2 * r)
    assert abs(x - approx) < 1e-10


def test_x_star_requires_r3():
    with pytest.raises(InvalidParam):
        x_star_iteration(2)
    with pytest.raises(NoConvergence):
        x_star_iteration(3, steps=2)


def test_x_star_iteration_mpf_route_matches_float():
    # the same sandwich in mpf at 256 bits; its step budget is checked too
    for r in range(3, 17):
        x_mp, lower, upper = x_star_iteration(r, precision=256)
        assert isinstance(x_mp, mp.mpf) and isinstance(lower[-1], mp.mpf)
        assert abs(float(x_mp) - x_star_iteration(r)[0]) <= 1e-14, r
        assert lower[-1] <= x_mp <= upper[-1]
    with pytest.raises(NoConvergence):
        x_star_iteration(3, steps=50, precision=256)


def test_core_theory_subcritical():
    th = core_theory(W3, 0.5)
    assert th.g_star == 0.0
    assert th.core_row_frac == 0.0
    assert th.occupied_col_frac == 0.0
    assert th.incidence_frac == 0.0


def test_core_theory_composition():
    alpha = 0.95
    th = core_theory(W3, alpha)
    g = g_star(W3, alpha)
    assert th.core_row_frac == pytest.approx(alpha * g**3, rel=1e-12)
    assert th.occupied_col_frac == pytest.approx(
        1 - math.exp(-th.nu) * (1 + th.nu), rel=1e-12)
    assert th.aspect_sign == -1  # above alpha_bar: more rows than columns


def test_core_theory_incidence_identity():
    rs = np.random.default_rng(5)
    for dist in mixture_batch(29, 20):
        alpha = float(rs.uniform(0.3, 1.2))
        th = core_theory(dist, alpha)  # raises Inconsistent on identity failure
        if th.g_star > 0:
            assert th.incidence_frac == pytest.approx(
                alpha * th.g_star * dist.pgf(th.g_star, 1), abs=1e-10)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5], ids=["nan", "inf", "neg"])
@pytest.mark.parametrize("call", [g_star, core_theory], ids=["g_star", "core_theory"])
def test_g_star_routes_reject_bad_alpha(call, alpha):
    with pytest.raises(InvalidParam, match="finite number >= 0"):
        call(W3, alpha)


def test_core_theory_degree_pmf_mass():
    th = core_theory(W3, 0.95)
    pmf = th.col_degree_pmf(d_max=50)
    assert pmf[1] == 0.0
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-10)
    assert 1 - pmf[0] == pytest.approx(th.occupied_col_frac, abs=1e-10)


def test_asymptotics_monotone_into_regime():
    rows = threshold_asymptotics(r_max=12)
    by_r = {row["r"]: row for row in rows}
    assert by_r[12]["star_scaled"] == pytest.approx(1.0, abs=0.15)
    assert by_r[12]["bar_scaled"] == pytest.approx(1.0, abs=0.15)
    # the scaled gaps settle toward 1 as r grows
    assert abs(by_r[12]["bar_scaled"] - 1) < abs(by_r[6]["bar_scaled"] - 1)


def test_threshold_report_fixed3():
    rep = threshold_report(W3, witness_alpha=0.95)
    assert rep.alpha_star == pytest.approx(0.889493, abs=5e-6)
    assert rep.alpha_bar == pytest.approx(0.917935, abs=5e-6)
    assert rep.x_star == pytest.approx(0.883414, abs=5e-6)
    assert rep.x_star_is_psi_root
    assert rep.bar_crossing_transversal
    assert rep.gamma0 is not None and rep.beta0 is not None
    assert len(rep.discontinuities) == 1


def test_threshold_report_weight2():
    rep = threshold_report(W2)
    assert rep.alpha_bar is None and rep.x_star is None
    assert 0.5 - 1e-9 <= rep.alpha_star < 1.0


def test_threshold_report_fixed_weights_up_to_40():
    # the lambda-system route lands a few ulps above 1 for r = 34, 36, 37,
    # 39 and 40; alpha_star clamps it, so the report's [1/2, 1] check holds
    for r in range(3, 41):
        rep = threshold_report(WeightDist.fixed(r))
        assert 0.5 <= rep.alpha_star <= 1.0, r


@pytest.mark.parametrize("r", [34, 40, 64, 161, 200, 237, 400, 695, 1000, 2000])
def test_alpha_star_heavy_fixed_weights(r):
    # 1 - alpha_star_r ~ e^-r / log 2 is below the routes' error from r = 34;
    # past ROUTES_R_MAX the lambda-system root leaves its bracket, and from
    # r = 237 tanh(0.05)^-r overflows
    assert alpha_star(WeightDist.fixed(r)) == 1.0


def test_alpha_star_non_decreasing_across_star_one_r():
    # the lambda-system route is off by a few ulps, more than 1 - alpha_star_r
    # from r = 34 on: r = 38 gave 0.9999999999999981 between 1.0 at 37 and 39
    values = [alpha_star(WeightDist.fixed(r)) for r in range(30, 43)]
    assert values == sorted(values)
    assert thresholds.STAR_ONE_R == 34
    assert all(v < 1.0 for v in values[:4]) and values[4:] == [1.0] * 9


@pytest.mark.parametrize("r", [700, 704, 1000, 2000])
def test_alpha_bar_heavy_fixed_weights(r):
    # from r = 701 psi stays positive over the whole u grid: its root is at
    # u = E[W] = r, where h = 1
    assert alpha_bar(WeightDist.fixed(r)) == 1.0


@pytest.mark.parametrize("r", [700, 701, 1000, 2000])
def test_threshold_report_heavy_fixed_weights_read_the_root(r):
    # past the u grid x rounds to 1 and h = u / E[W], so g_star(alpha) sits
    # at u = alpha r: psi(g_star) is 0 at alpha_bar = 1 and changes sign there
    dist = WeightDist.fixed(r)
    rep = threshold_report(dist)
    assert rep.alpha_bar == 1.0 and rep.x_star == 1.0
    assert rep.x_star_is_psi_root is True
    assert rep.bar_crossing_transversal is True
    assert g_star(dist, rep.alpha_bar) == rep.x_star


@pytest.mark.parametrize("r, alpha", [(3, 300.0), (40, 20.0)])
def test_g_star_past_the_u_grid(r, alpha):
    # past _U_HI x rounds to 1 and h = u / E[W], so h crosses alpha at
    # u = alpha E[W] for every law; u = _U_HI broke core_theory's identities
    dist = WeightDist.fixed(r)
    assert thresholds._g_star_u(dist, alpha, thresholds._h_landscape(dist)[1]) == alpha * r
    th = core_theory(dist, alpha)
    assert th.g_star == 1.0 and th.incidence_frac == alpha * r


def test_report_tolerances_are_the_ones_applied(monkeypatch):
    # every bisection and golden refinement of a report runs to a reported
    # tolerance, and every key holds the constant the code applies
    seen = set()
    for name in ("_bisect", "_golden_min"):
        def spy(f, a, b, tol, _inner=getattr(thresholds, name)):
            seen.add(tol)
            return _inner(f, a, b, tol)
        monkeypatch.setattr(thresholds, name, spy)
    tol = threshold_report(FIG1).tolerances
    assert tol == {
        "tol_F": thresholds.TOL_F,
        "alpha_bisect": thresholds.ALPHA_TOL,
        "gamma_refine": thresholds.GAMMA_TOL,
        "u_refine": thresholds._U_TOL,
        "alpha_bar_check_slack": 10 * thresholds.ALPHA_BAR_TOL,
        "jump_prominence": thresholds.PROMINENCE,
        "star_route_agreement": thresholds.ROUTE_TOL,
        "star_stationary_refine": thresholds.STATIONARY_TOL,
        "star_lambda_refine": thresholds.LAMBDA_TOL,
    }
    assert seen == {tol["alpha_bisect"], tol["gamma_refine"], tol["u_refine"]}
    # a fixed weight's alpha_star also runs the two cross-check routes
    seen.clear()
    tol = threshold_report(W3).tolerances
    assert seen <= set(tol.values())
    assert {tol["star_stationary_refine"], tol["star_lambda_refine"]} <= seen


@pytest.mark.parametrize("dist", [W3, FIG1, FIG2, parse_rho("0.5:4,0.3:9,0.2:17")],
                         ids=["W3", "FIG1", "FIG2", "mix3"])
def test_components_match_report(dist):
    rep = threshold_report(dist)
    assert alpha_sharp(dist)[0] == rep.alpha_sharp
    assert alpha_star(dist) == rep.alpha_star
    assert tuple(discontinuities(dist)) == rep.discontinuities
    assert alpha_bar(dist) == rep.alpha_bar
    assert g_star(dist, rep.alpha_bar) == rep.x_star


@pytest.mark.parametrize("call", [
    threshold_report, alpha_sharp, discontinuities, alpha_bar, psi_gstar_sign_pattern,
    lambda d: core_theory(d, 0.95), lambda d: g_star(d, 0.95), lambda d: g_star_curve(d, 20),
], ids=["threshold_report", "alpha_sharp", "discontinuities", "alpha_bar",
        "psi_gstar_sign_pattern", "core_theory", "g_star", "g_star_curve"])
def test_one_h_sweep_per_call(call, monkeypatch):
    # one sweep is one call of the array h over _U_GRID; the golden and
    # bisection refinements evaluate the scalar _h_of_u
    h_array = thresholds._h_of_u_array
    calls = 0

    def counting_h_array(dist):
        nonlocal calls
        calls += 1
        return h_array(dist)
    monkeypatch.setattr(thresholds, "_h_of_u_array", counting_h_array)
    call(FIG1)
    assert calls == 1


# --- the array sweeps and the visible-branch events against the scalar routes

FIG8 = parse_rho("0.9:3,0.1:38")
ORACLE_MIXTURES = ("0.5:4,0.3:9,0.2:17", "0.7:3,0.3:5", "0.2:6,0.8:31")
ORACLE_DISTS = ([W3, FIG1, FIG2, FIG8] + [WeightDist.fixed(r) for r in range(4, 13)]
                + [parse_rho(s) for s in ORACLE_MIXTURES])
ORACLE_IDS = (["W3", "FIG1", "FIG2", "FIG8"] + [f"r={r}" for r in range(4, 13)]
              + ["mix-4-9-17", "mix-3-5", "mix-6-31"])
oracle_dists = pytest.mark.parametrize("dist", ORACLE_DISTS, ids=ORACLE_IDS)


# the alpha scans that alpha_bar and psi_gstar_sign_pattern replaced, one
# scalar psi(g_star) evaluation per alpha; the oracles for both
ORACLE_BAR_STEP = 1e-4
ORACLE_BAR_END = 1.05
ORACLE_PATTERN_STEP = 2e-5


def _scalar_alpha_bar(dist):
    # the first sign change is bisected to ALPHA_BAR_TOL and snapped to a
    # jump of g_star within 10 ALPHA_BAR_TOL
    a_sharp, mins, jumps = thresholds._h_landscape(dist)
    psg = thresholds._psi_g_star
    step = ORACLE_BAR_STEP
    prev, a = a_sharp, a_sharp + step
    while a <= ORACLE_BAR_END + step and psg(dist, a, mins) >= 0.0:
        prev, a = a, a + step
    if a > ORACLE_BAR_END + step:
        raise NoConvergence("no sign change")
    lo, hi = thresholds._bisect(lambda al: psg(dist, al, mins) >= 0.0, prev, a,
                                thresholds.ALPHA_BAR_TOL)
    a_bar = 0.5 * (lo + hi)
    for alpha_d, _, _ in jumps:
        if abs(a_bar - alpha_d) <= 10.0 * thresholds.ALPHA_BAR_TOL:
            return alpha_d
    return a_bar


def _scalar_sign_pattern(dist):
    a_sharp, mins, _ = thresholds._h_landscape(dist)
    step = ORACLE_PATTERN_STEP
    pattern = []
    a = a_sharp + step
    while a <= 1.02:
        v = thresholds._psi_g_star(dist, a, mins)
        s = "+" if v > 0 else ("-" if v < 0 else "0")
        if s != "0" and (not pattern or pattern[-1] != s):
            pattern.append(s)
        a += step
    return "".join(pattern)


@oracle_dists
def test_u_sweep_psi_signs_match_scalar(dist):
    # the sweep that brackets the roots of psi for the visible-branch events
    us = thresholds._U_GRID
    psi = thresholds._psi_of_u_array(dist)
    want = [thresholds._psi_of_u(dist, u) for u in us.tolist()]
    assert np.array_equal(np.sign(psi), np.sign(want))


@oracle_dists
def test_alpha_bar_matches_scalar_scan(dist):
    # within the width of the oracle's own bisection bracket
    assert abs(alpha_bar(dist) - _scalar_alpha_bar(dist)) <= thresholds.ALPHA_BAR_TOL


@oracle_dists
def test_sign_pattern_matches_scalar_scan(dist):
    assert psi_gstar_sign_pattern(dist) == _scalar_sign_pattern(dist)


@oracle_dists
def test_array_sweeps_match_scalar(dist):
    # h has no cancellation, so it is compared relative to its value
    rel = 1e-15
    us = thresholds._U_GRID
    h = thresholds._h_of_u_array(dist)
    want = np.array([thresholds._h_of_u(dist, u) for u in us.tolist()])
    assert np.array_equal(np.isinf(h), np.isinf(want))
    fin = np.isfinite(want)
    assert (np.abs(h - want)[fin] <= rel * want[fin]).all()


@pytest.mark.parametrize("dist, alpha, want", [
    (W3, 0.5, (1.1102230246251565e-16, 0.49999999590893907, 5.477694805238659e-25)),
    (W3, 0.88, (1.1102230246251565e-16, 0.49999999590893907, 5.477694805238659e-25)),
    (W3, 0.95, (0.028170603228180047, 0.07096870509048654, 0.38716738976387066)),
    (FIG1, 0.5, (1.1102230246251565e-16, 0.49999999590893907, 4.929925324714793e-25)),
    (FIG1, 0.88, (1.1102230246251565e-16, 0.49999999590893907, 4.929925324714793e-25)),
    (FIG1, 0.95, (1.1102230246251565e-16, 0.49999999590893907, 4.929925324714793e-25)),
], ids=["W3-0.5", "W3-0.88", "W3-0.95", "FIG1-0.5", "FIG1-0.88", "FIG1-0.95"])
def test_F_of_alpha_values_kept(dist, alpha, want):
    # F_of_alpha skips the flat run where F_gamma rounds to 0.0 next to
    # gamma = 1/2; the smallest maximizer must stay the first point of that run
    got = F_of_alpha(dist, alpha)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_exact_probabilities_match_floats():
    # Fraction atoms reach the array sweeps as float coefficients
    from fractions import Fraction
    exact = WeightDist(((3, Fraction(1, 2)), (5, Fraction(3, 10)), (9, Fraction(1, 5))))
    floats = WeightDist(((3, 0.5), (5, 0.3), (9, 0.2)))
    assert threshold_report(exact, witness_alpha=0.95) == threshold_report(floats, witness_alpha=0.95)
    assert core_theory(exact, 0.92) == core_theory(floats, 0.92)
    assert psi_roots(exact) == psi_roots(floats)
    assert psi_gstar_sign_pattern(exact) == psi_gstar_sign_pattern(floats)
