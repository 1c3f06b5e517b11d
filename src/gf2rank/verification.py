"""Named verification suites: threshold tables, figure mixtures, oracles.

Each suite returns a list of Check records; the CLI prints them one per line
and signals failure through its exit code, and the acceptance tests assert
on the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import oracles, thresholds
from .exact import (
    ParitySpec,
    expected_null_count,
    multinomial_parity,
    pi_multinomial,
    prob_A_general,
)
from .weights import WeightDist, parse_rho

# Fixed-weight threshold table: r -> (alpha_sharp, alpha_star, alpha_bar)
TABLE1 = {
    1: (0.0, 0.0, None),
    2: (0.5, 0.5, None),
    3: (0.818469, 0.889493, 0.917935),
    4: (0.772280, 0.967147, 0.976770),
    5: (0.701780, 0.989162, 0.992438),
    6: (0.637081, 0.996228, 0.997380),
    7: (0.581775, 0.998650, 0.999064),
    8: (0.534997, 0.999510, 0.999660),
}
TABLE1_TOL = 5e-6

FIG1_RHO = "0.9:3,0.1:24"
FIG2_RHO = "0.9183:3,0.04:19,0.0417:41"
FIG8_RHO = "0.9:3,0.1:38"

RATE_ALPHAS = (0.9, 0.95)
RATE_NS = (60, 120, 240, 480)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: object
    got: object
    tol: object = None

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        tol = "" if self.tol is None else f"  (tol {self.tol})"
        return f"{tag}  {self.name}: expected {self.expected}, got {self.got}{tol}"


def _close(name: str, expected: float, got: float, tol: float) -> Check:
    return Check(name, abs(expected - got) <= tol, expected, got, tol)


def _equal(name: str, expected, got) -> Check:
    return Check(name, expected == got, expected, got)


def suite_table1() -> list:
    checks = []
    for r, (sharp, star, bar) in TABLE1.items():
        dist = WeightDist.fixed(r)
        got_sharp, _ = thresholds.alpha_sharp(dist)
        checks.append(_close(f"table1 r={r} alpha_sharp", sharp, got_sharp, TABLE1_TOL))
        got_star = thresholds.alpha_star(dist)
        checks.append(_close(f"table1 r={r} alpha_star", star, got_star, TABLE1_TOL))
        if bar is not None:
            got_bar = thresholds.alpha_bar(dist)
            checks.append(_close(f"table1 r={r} alpha_bar", bar, got_bar, TABLE1_TOL))
    return checks


def suite_fig1() -> list:
    tol = 5e-5
    dist = parse_rho(FIG1_RHO)
    checks = []
    sharp, _ = thresholds.alpha_sharp(dist)
    checks.append(_close("fig1 alpha_sharp", 0.908654, sharp, tol))
    disc = thresholds.discontinuities(dist)
    checks.append(_equal("fig1 jump count", 2, len(disc)))
    if len(disc) == 2:
        (a0, l0, r0), (a1, l1, r1) = disc
        checks.append(_close("fig1 jump[0] alpha", 0.908654, a0, tol))
        checks.append(_close("fig1 jump[0] g_left", 0.0, l0, tol))
        checks.append(_close("fig1 jump[0] g_right", 0.719682, r0, tol))
        checks.append(_close("fig1 jump[1] alpha", 0.938536, a1, tol))
        checks.append(_close("fig1 jump[1] g_left", 0.835696, l1, tol))
        checks.append(_close("fig1 jump[1] g_right", 0.964919, r1, tol))
    a_bar = thresholds.alpha_bar(dist)
    checks.append(_close("fig1 alpha_bar", 0.991613, a_bar, tol))
    checks.append(_close("fig1 x_star", 0.987817, thresholds.g_star(dist, a_bar), tol))
    return checks


def suite_fig2() -> list:
    tol = 5e-5
    dist = parse_rho(FIG2_RHO)
    checks = []
    sharp, _ = thresholds.alpha_sharp(dist)
    checks.append(_close("fig2 alpha_sharp", 0.890061, sharp, tol))
    disc = thresholds.discontinuities(dist)
    checks.append(_equal("fig2 jump count", 2, len(disc)))
    if len(disc) == 2:
        checks.append(_close("fig2 jump[1] alpha", 0.991044, disc[1][0], tol))
        checks.append(_close("fig2 jump[1] g_left", 0.929269, disc[1][1], tol))
        checks.append(_close("fig2 jump[1] g_right", 0.973325, disc[1][2], tol))
    checks.append(_close("fig2 alpha_bar", 0.990686, thresholds.alpha_bar(dist), tol))
    pattern = thresholds.psi_gstar_sign_pattern(dist)
    checks.append(_equal("fig2 psi(g_star) sign pattern", "+-+-", pattern))
    return checks


def suite_fig8() -> list:
    tol = 5e-5
    dist = parse_rho(FIG8_RHO)
    checks = []
    roots = thresholds.psi_roots(dist)
    checks.append(_equal("fig8 psi root count", 3, len(roots)))
    for want, got in zip((0.901174, 0.937414, 0.997979), roots):
        checks.append(_close(f"fig8 psi root {want}", want, got, tol))
    checks.append(_close("fig8 alpha_bar", 0.998263, thresholds.alpha_bar(dist), tol))
    x3, lower, upper = thresholds.x_star_iteration(3)
    checks.append(_close("fig8 x_star(3) sandwich value", 0.883414, x3, 1e-6))
    mono = (all(a < b for a, b in zip(lower, lower[1:]))
            and all(a > b for a, b in zip(upper, upper[1:])))
    checks.append(Check("fig8 x_star(3) sandwich monotone", mono, True, mono))
    return checks


def suite_oracles() -> list:
    """Exact-arithmetic agreement of the closed forms with the oracles' walks."""
    checks = []
    for r in (2, 3):
        law = [(r, 1)]
        for n in range(r, 7):
            for m in range(0, 3 * n + 1):
                got = prob_A_general(n, m, law, exact=True)
                want = oracles.prob_A(n, m, law)
                checks.append(_equal(f"oracle prob_A n={n} m={m} W={r}", want, got))

    parity_cases = [
        (2, (0,), (Fraction(2, 3), Fraction(1, 3))),
        (3, (1,), (Fraction(1, 4), Fraction(3, 4))),
        (2, (0, 1), (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4))),
        (3, (2, 0), (Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5))),
    ]
    for r, targets, probs in parity_cases:
        spec = ParitySpec(r=r, targets=targets, cell_probs=probs)
        for n in range(0, 5):
            got = multinomial_parity(spec, n, exact=True)
            want = oracles.parity_paths(spec, n)
            checks.append(_equal(f"oracle parity k={spec.k} r={r} n={n}", want, got))

    # the two all-even formulas agree on the binomial scheme: the closed pgf
    # form equals the even-overlap form fed the exact odd-urn-count law
    for r in (2, 3):
        dist = WeightDist.fixed(r)
        for n in range(2, 7):
            bin_law = oracles.binomial_weight_law(dist, n)
            for m in range(0, 5):
                a = pi_multinomial(n, m, dist, exact=True)
                b = prob_A_general(n, m, bin_law, exact=True)
                checks.append(_equal(f"oracle pi==pa-bin n={n} m={m} W={r}", b, a))

    w23 = WeightDist(((2, Fraction(1, 2)), (3, Fraction(1, 2))))
    dists = (("1", WeightDist.fixed(1)), ("2", WeightDist.fixed(2)), ("3", WeightDist.fixed(3)),
             ("4", WeightDist.fixed(4)), ("2/3", w23))
    # ball-level walk of the binomial scheme, empty rows included
    for name, dist in dists:
        for n in range(2, 6):
            for m in range(0, 2 * n + 1):
                a = pi_multinomial(n, m, dist, exact=True)
                b = oracles.pi_urns(n, m, dist)
                checks.append(_equal(f"oracle pi-balls n={n} m={m} W={name}", b, a))

    # E[N] = E[2^corank] in both row models; the binomial rows are the
    # sampler's: the nonempty ball throws, renormalised
    for name, dist in dists[1:]:
        for n in range(2, 5):
            for m in range(0, 2 * n + 1):
                want = oracles.mean_null_count(n, m, dist.atoms)
                got, _ = expected_null_count(n, m, dist, model="exact", exact=True)
                checks.append(_equal(f"oracle E[N] n={n} m={m} W={name}", want, got))
                want = oracles.binomial_mean_null_count(n, m, dist)
                got, _ = expected_null_count(n, m, dist, model="binomial", exact=True)
                checks.append(_equal(f"oracle E[N] binomial n={n} m={m} W={name}", want, got))
    return checks


def suite_asymptotics() -> list:
    checks = []
    rows = thresholds.threshold_asymptotics(r_max=12)
    by_r = {row["r"]: row for row in rows}
    row3 = by_r[3]
    checks.append(_close("asym r=3 alpha_star", TABLE1[3][1], row3["alpha_star"], TABLE1_TOL))
    checks.append(_close("asym r=3 alpha_bar", TABLE1[3][2], row3["alpha_bar"], TABLE1_TOL))
    row12 = by_r[12]
    checks.append(_close("asym r=12 (1-a*) e^r log2", 1.0, row12["star_scaled"], 0.15))
    checks.append(_close("asym r=12 (1-abar) e^r", 1.0, row12["bar_scaled"], 0.15))
    # n^-1 log E[N(n, alpha n)] -> F(alpha), the limit that defines alpha_star,
    # at the O(log n / n) rate of a sum of polynomially many exponential terms
    w3 = WeightDist.fixed(3)
    for alpha in RATE_ALPHAS:
        f = thresholds.F_of_alpha(w3, alpha)[0]
        for n in RATE_NS:
            total, _ = expected_null_count(n, round(alpha * n), w3)
            checks.append(_close(f"asym r=3 alpha={alpha} n={n} log E[N] / n", f,
                                 float(mp.log(total)) / n, 0.2 * math.log(n) / n))
    return checks


_SUITES = {
    "table1": suite_table1,
    "fig1": suite_fig1,
    "fig2": suite_fig2,
    "fig8": suite_fig8,
    "oracles": suite_oracles,
    "asymptotics": suite_asymptotics,
}
SUITES = (*_SUITES, "all")


def run_suite(name: str) -> list:
    if name == "all":
        return [c for fn in _SUITES.values() for c in fn()]
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return fn()
