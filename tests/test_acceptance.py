"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
passing runs).  Monte Carlo criteria use fixed seeds, so the whole module is
deterministic.
"""

import math
import time

import mpmath as mp
import numpy as np

from gf2rank import oracles, verification
from gf2rank.exact import pi_multinomial, poissonization_check
from gf2rank.experiments import (
    ExperimentConfig,
    exp_classical_limits,
    exp_core_vs_theory,
    exp_dense_survival,
    exp_null_growth,
    exp_tn_window,
)
from gf2rank.gf2 import enumerate_null_vectors
from gf2rank.peeling import Hypergraph, corank, peel_2core
from gf2rank.sampling import SampleConfig, sample_matrix
from gf2rank.thresholds import alpha_sharp, g_star, h_psi
from gf2rank.weights import WeightDist, parse_rho

from conftest import hypergraph, mixture_batch, naive_core

W1, W2, W3 = WeightDist.fixed(1), WeightDist.fixed(2), WeightDist.fixed(3)


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {tag}  {criterion}  {detail}")
    assert ok, f"{criterion}: {detail}"


def run_suite(name: str, budget: float | None = None) -> str:
    t0 = time.monotonic()
    checks = verification.run_suite(name)
    dt = time.monotonic() - t0
    bad = [c for c in checks if not c.passed]
    detail = f"{len(checks) - len(bad)}/{len(checks)} checks in {dt:.1f}s"
    if bad:
        detail += " | " + "; ".join(c.line() for c in bad[:4])
    if budget is not None and dt > budget:
        detail += f" | EXCEEDED {budget}s budget"
        return detail, False
    return detail, not bad


def test_criterion_01_table1():
    detail, ok = run_suite("table1", budget=60.0)
    report("1. Table-1 thresholds r=1..8 to 5e-6, < 60 s", ok, detail)


def test_criterion_02_fig1_mixture():
    detail, ok = run_suite("fig1")
    report("2. mixture 0.9:3,0.1:24 thresholds and jumps to 5e-5", ok, detail)


def test_criterion_03_fig2_mixture():
    detail, ok = run_suite("fig2")
    report("3. mixture 0.9183:3,0.04:19,0.0417:41 with +-+- sign pattern", ok, detail)


def test_criterion_04_fig8_mixture():
    detail, ok = run_suite("fig8")
    report("4. mixture 0.9:3,0.1:38 psi roots and sandwich x*_3", ok, detail)


def test_criterion_05_oracle_equivalence():
    detail, ok = run_suite("oracles", budget=120.0)
    report("5. exact-arithmetic oracle equivalences, < 120 s", ok, detail)


def test_criterion_06_ehrenfest_rate():
    # lambda solving lambda tanh(lambda) = 2
    lo, hi = 0.1, 10.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid * math.tanh(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    closed = math.log(math.cosh(lam)) - (lam * math.tanh(lam)) * (1 - math.log(math.tanh(lam)))
    n = 4000
    rate = float(mp.log(pi_multinomial(n, 2 * n, W1))) / n
    ok1 = abs(rate - closed) <= 1e-2
    worst = 0.0
    for nn in range(2, 9):
        for m in range(0, 9):
            for mu in (0.5, 1.0, 2.0):
                lhs, rhs = poissonization_check(nn, m, mu)
                worst = max(worst, abs(float(lhs - rhs)))
    ok2 = worst <= 1e-12
    report("6. Ehrenfest rate at n=4000 within 1e-2; Poissonization to 1e-12",
           ok1 and ok2, f"rate {rate:.6f} vs {closed:.6f}; worst identity gap {worst:.2e}")


def test_criterion_07_core_limit_laws():
    t0 = time.monotonic()
    cfg = ExperimentConfig(experiment="core", dist=W3, n_values=(20000,), trials=20,
                           seed=2024, alpha=0.95, threads=2)
    res = exp_core_vs_theory(cfg)
    dt = time.monotonic() - t0
    e = res.summary["per_n"][20000]
    rels = {k: abs(e[f"{k}_frac"] - e[f"theory_{k}"]) / e[f"theory_{k}"]
            for k in ("rows", "cols", "inc")}
    ok = all(r <= 0.02 for r in rels.values()) and dt < 120.0
    report("7. 2-core fractions within 2% of limits at n=20000, < 2 min", ok,
           f"rel errors {({k: round(v, 5) for k, v in rels.items()})} in {dt:.0f}s")


def test_criterion_08_tn_window():
    cfg = ExperimentConfig(experiment="tn", dist=W3, n_values=(3000,), trials=200,
                           seed=11, threads=2)
    res = exp_tn_window(cfg)
    e = res.summary["per_n"][3000]
    lo, hi = res.summary["window"]
    window_ok = abs(lo - 0.86949) < 1e-4 and abs(hi - 0.93793) < 1e-4
    ok = e["in_window"] >= 0.95 and e["all_le_n_plus_1"] and window_ok
    report("8. T_n/n in [0.86949, 0.93793] for >= 95% of 200 trials at n=3000", ok,
           f"in-window {e['in_window']:.3f}, max T {e['max_T']}, window [{lo:.5f}, {hi:.5f}]")


def test_criterion_09a_birthday_tail():
    cfg = ExperimentConfig(experiment="classical", dist=W1, n_values=(10**4,),
                           trials=10**4, seed=5, z=1.0, threads=2)
    e = exp_classical_limits(cfg).summary["per_n"][10**4]
    report("9a. r=1 birthday tail within 0.02 of e^-1/2",
           e["abs_error"] <= 0.02, f"err {e['abs_error']:.4f}")


def test_criterion_09b_first_cycle_tail():
    """Each r=2 first-cycle law is checked against the process it describes.

    The distinct-edge law (1-z)^(1/2) e^(z/2+z^2/4) (Flajolet, Knuth &
    Pittel 1989) is checked against T_distinct, the distinct-edge graph
    process read off each trial's stream with repeated rows skipped.  The
    i.i.d. law (1-z)^(1/2) e^(z/2) is checked against T_n of the model's
    i.i.d. rows, where a repeated weight-2 row is already a GF(2) dependency:
    repeats add 2-cycles, Poisson with mean z^2/4, and so the factor
    e^(-z^2/4).  The gap between the two laws (abs_error, about 0.058 at
    z=0.5) is printed, not asserted."""
    cfg = ExperimentConfig(experiment="classical", dist=W2, n_values=(5000,),
                           trials=10**4, seed=6, z=0.5, threads=2)
    e = exp_classical_limits(cfg).summary["per_n"][5000]
    report("9b. r=2 first-cycle tails within 0.02 of the distinct-edge and i.i.d. laws",
           e["abs_error_distinct"] <= 0.02 and e["abs_error_iid"] <= 0.02,
           f"err {e['abs_error_distinct']:.4f} distinct-edge vs {e['limit_tail']:.5f}; "
           f"err {e['abs_error_iid']:.4f} iid vs {e['limit_tail_iid']:.5f}; "
           f"inter-law gap {e['abs_error']:.4f}")


def test_criterion_09c_dense_survival():
    cfg = ExperimentConfig(experiment="dense", dist=None, n_values=(30,),
                           trials=10**5, seed=7, r_values=(1, 2, 3, 4, 5), threads=2)
    e = exp_dense_survival(cfg).summary["per_n"][30]
    report("9c. dense GF(2) survival within 0.01 of the exact finite-n product",
           all(entry["abs_error"] <= 0.01 for entry in e.values()),
           f"max err {max(x['abs_error'] for x in e.values()):.4f}")


def test_criterion_10_below_threshold_nullity():
    cfg = ExperimentConfig(experiment="null-growth", dist=W3,
                           n_values=(200, 400, 800), trials=1000, seed=2024,
                           alpha=0.8, threads=2)
    res = exp_null_growth(cfg)
    stats = {n: res.summary["per_n"][n]["scaled_excess"] for n in (200, 400, 800)}
    bounded = all(abs(s) <= 12.0 for s in stats.values())
    no_growth = stats[800] <= max(stats[200], stats[400]) + 8.0
    report("10. n (mean 2^sigma - 1) bounded below threshold", bounded and no_growth,
           f"scaled excess {({n: round(s, 2) for n, s in stats.items()})}")


def test_criterion_11_asymptotics():
    detail, ok = run_suite("asymptotics")
    report("11. (1-alpha*) e^r log2 and (1-alpha_bar) e^r within 15% at r=12", ok, detail)


def test_criterion_12_property_suites():
    rng = np.random.default_rng(777)

    # peeling order invariance, 10^3 fuzz cases: peel_2core (frontier rounds)
    # against naive_core (one edge at a time, smallest degree-1 vertex first)
    order_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        m = int(rng.integers(0, 16))
        edges = []
        for _ in range(m):
            k = int(rng.integers(1, min(4, n) + 1))
            edges.append(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if set(peel_2core(hypergraph(n, edges)).core_edge_ids) != naive_core(n, edges)[0]:
            order_ok = False
            break

    # null vectors supported on the core; enumerate count = 2^corank; m up to 16
    sound_ok = True
    count_ok = True
    for t in range(120):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 17))
        mat = sample_matrix(SampleConfig(n=n, m=m, dist=W3, seed=int(rng.integers(2**31))))
        vecs, _ = enumerate_null_vectors(mat)
        if len(vecs) != 2 ** corank(mat):
            count_ok = False
        core = set(peel_2core(Hypergraph.from_matrix(mat)).core_edge_ids)
        for v in vecs:
            if any((v >> i) & 1 and i not in core for i in range(m)):
                sound_ok = False

    # sign(psi') = -sign(h') across grids of random mixtures
    sign_ok = True
    for dist in mixture_batch(31, 10):
        for x in np.linspace(1e-3, 1 - 1e-3, 1000):
            _, _, hp, psip = h_psi(dist, float(x))
            if abs(hp) > 1e-12 and (psip > 0) != (hp < 0):
                sign_ok = False

    # h(g_star(alpha)) = alpha on [alpha_sharp, infinity) samples
    ident_ok = True
    for dist in (W3, parse_rho("0.9:3,0.1:24")):
        sharp, _ = alpha_sharp(dist)
        for a in np.linspace(sharp, 3.0, 40):
            x = g_star(dist, float(a))
            if abs(h_psi(dist, min(x, 1 - 1e-15))[0] - a) > 1e-9:
                ident_ok = False

    # seed determinism
    det_ok = (sample_matrix(SampleConfig(n=50, m=40, dist=W3, seed=9)).rows
              == sample_matrix(SampleConfig(n=50, m=40, dist=W3, seed=9)).rows)

    ok = order_ok and sound_ok and count_ok and sign_ok and ident_ok and det_ok
    report("12. property suites (order-invariance, soundness, counts, signs, identity, determinism)",
           ok,
           f"order={order_ok} sound={sound_ok} count={count_ok} "
           f"signs={sign_ok} identity={ident_ok} determinism={det_ok}")
