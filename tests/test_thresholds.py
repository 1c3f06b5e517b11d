import math

import mpmath as mp
import numpy as np
import pytest

from conftest import mixture_batch
from gf2rank import thresholds
from gf2rank.errors import InvalidParam, NoConvergence
from gf2rank.thresholds import (
    F_gamma,
    F_of_alpha,
    R_of_alpha,
    alpha_bar,
    alpha_sharp,
    alpha_star,
    core_theory,
    discontinuities,
    g_star,
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


def test_alpha_star_weight2():
    assert alpha_star(W2) == pytest.approx(0.5, abs=5e-6)


def test_alpha_star_weight1():
    assert alpha_star(W1) == pytest.approx(0.0, abs=5e-6)


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


def test_R_multinomial_closed_form():
    # with rho(s) = s and alpha = lam tanh(lam), the decay rate is
    # (lam tanh lam)(1 - log tanh lam) - log cosh lam
    for lam in (0.7, 1.0, 2.0653):
        alpha = lam * math.tanh(lam)
        want = alpha * (1 - math.log(math.tanh(lam))) - math.log(math.cosh(lam))
        got, _ = R_of_alpha(W1, alpha)
        assert got == pytest.approx(want, abs=1e-10)


def test_R_nondecreasing():
    for dist in mixture_batch(13, 20):
        assert R_of_alpha(dist, 1.0)[0] <= R_of_alpha(dist, 2.0)[0] + 1e-12


def test_R_matches_exact_sum_at_n4000():
    from gf2rank.exact import pi_multinomial
    n = 4000
    rate, _ = R_of_alpha(W3, 1.0)
    val = pi_multinomial(n, n, W3)
    assert abs(-float(mp.log(val)) / n - rate) <= 1e-2


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
    assert rep.tolerances["alpha_bar_scan_step"] == pytest.approx(1e-4)


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
    lambda d: core_theory(d, 0.95), lambda d: g_star(d, 0.95),
], ids=["threshold_report", "alpha_sharp", "discontinuities", "alpha_bar",
        "psi_gstar_sign_pattern", "core_theory", "g_star"])
def test_one_h_sweep_per_call(call, monkeypatch):
    # one sweep is one h evaluation per grid point; the golden and bisection
    # refinements add a few hundred more, far short of a second sweep
    h = thresholds._h
    calls = 0

    def counting_h(dist, x):
        nonlocal calls
        calls += 1
        return h(dist, x)
    monkeypatch.setattr(thresholds, "_h", counting_h)
    call(FIG1)
    assert len(thresholds._X_GRID) <= calls < 2 * len(thresholds._X_GRID)
