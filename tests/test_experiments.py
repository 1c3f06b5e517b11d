import math

import pytest
from click.testing import CliRunner

from gf2rank import experiments
from gf2rank.cli import main
from gf2rank.errors import InvalidParam
from gf2rank.experiments import (
    ExperimentConfig,
    _core_trial,
    exp_classical_limits,
    exp_core_vs_theory,
    exp_dense_survival,
    exp_null_growth,
    exp_tn_window,
    exp_weight_profile,
    run_experiment,
    write_records_csv,
)
from gf2rank.gf2 import RankState
from gf2rank.peeling import Hypergraph, peel_2core
from gf2rank.sampling import SampleConfig, make_rng, run_Tn, sample_matrix, sample_row
from gf2rank.thresholds import F_of_alpha, alpha_bar, alpha_star, core_theory
from gf2rank.verification import FIG1_RHO
from gf2rank.weights import WeightDist, parse_rho

W2, W3 = WeightDist.fixed(2), WeightDist.fixed(3)


def test_reproducible_bit_for_bit():
    cfg = ExperimentConfig(experiment="tn", dist=W3, n_values=(300,), trials=10, seed=5)
    a, b = exp_tn_window(cfg), exp_tn_window(cfg)
    assert a.records == b.records
    assert a.summary == b.summary


def test_different_seeds_differ():
    base = dict(experiment="tn", dist=W3, n_values=(300,), trials=10)
    a = exp_tn_window(ExperimentConfig(seed=5, **base))
    b = exp_tn_window(ExperimentConfig(seed=6, **base))
    assert a.records != b.records


def test_parallel_equals_serial():
    for base in (
        dict(experiment="tn", dist=W3, n_values=(60, 80), trials=6),
        dict(experiment="core", dist=W3, n_values=(300,), trials=5, model="binomial"),
        dict(experiment="null-growth", dist=W3, n_values=(20, 30), trials=6, alpha=0.8),
        dict(experiment="classical", dist=W2, n_values=(50,), trials=8, z=0.5),
        dict(experiment="profile", dist=W2, n_values=(6,), trials=6, alpha=2.0 / 3.0),
        dict(experiment="dense", dist=None, n_values=(18,), trials=40, alpha=0.9),
    ):
        a = run_experiment(ExperimentConfig(seed=3, threads=1, **base))
        b = run_experiment(ExperimentConfig(seed=3, threads=2, **base))
        assert a.records == b.records, base["experiment"]
        assert a.summary == b.summary, base["experiment"]


def _stub_pool(monkeypatch, cpus):
    """Replace the process pool by an in-process stand-in that notes each
    pool's max_workers, and report cpus CPUs: no process is started."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    return sizes


def test_fan_out_pool_bounded_by_trials_and_cpus(monkeypatch):
    # a huge thread count asks for at most one worker per trial and per CPU
    sizes = _stub_pool(monkeypatch, 8)
    base = dict(experiment="dense", dist=None, n_values=(18,), alpha=0.9, seed=3)
    for trials, threads, want in ((2, 100_000, [2]), (40, 100_000, [8]), (40, 3, [3]),
                                  (40, 1, []), (1, 100_000, [])):
        sizes.clear()
        got = run_experiment(ExperimentConfig(trials=trials, threads=threads, **base))
        assert sizes == want, (trials, threads)
        serial = run_experiment(ExperimentConfig(trials=trials, threads=1, **base))
        assert got.records == serial.records and got.summary == serial.summary


def test_simulate_huge_thread_count_starts_one_worker_per_trial(monkeypatch):
    sizes = _stub_pool(monkeypatch, 2)
    args = ["simulate", "--exp", "dense", "-n", "10", "--trials", "2", "--threads", "100000"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert sizes == [2]


def test_fan_out_single_cpu_runs_serially(monkeypatch):
    sizes = _stub_pool(monkeypatch, None)  # os.cpu_count() may not know
    run_experiment(ExperimentConfig(experiment="dense", dist=None, n_values=(18,), trials=4,
                                    seed=3, alpha=0.9, threads=4))
    assert sizes == []


def test_one_pool_per_run(monkeypatch):
    # the trial driver opens one pool for every n of a run, not one per n
    sizes = _stub_pool(monkeypatch, 2)
    got = run_experiment(ExperimentConfig(experiment="dense", dist=None, n_values=(10, 12, 14),
                                          trials=4, seed=3, threads=2))
    assert sizes == [2]
    serial = run_experiment(ExperimentConfig(experiment="dense", dist=None, n_values=(10, 12, 14),
                                             trials=4, seed=3, threads=1))
    assert got.records == serial.records and got.summary == serial.summary


def test_tn_window_summary_fields():
    cfg = ExperimentConfig(experiment="tn", dist=W3, n_values=(400,), trials=30, seed=8)
    res = exp_tn_window(cfg)
    entry = res.summary["per_n"][400]
    assert entry["all_le_n_plus_1"]
    assert 0.0 <= entry["in_window"] <= 1.0
    assert res.summary["window"][0] == pytest.approx(alpha_star(W3) - 0.02, abs=1e-9)
    assert res.summary["window"][1] == pytest.approx(alpha_bar(W3) + 0.02, abs=1e-9)


def test_tn_window_r4_window_values():
    cfg = ExperimentConfig(experiment="tn", dist=WeightDist.fixed(4), n_values=(60,),
                           trials=2, seed=1)
    res = exp_tn_window(cfg)
    lo, hi = res.summary["window"]
    assert lo == pytest.approx(0.947147, abs=5e-5)
    assert hi == pytest.approx(0.996770, abs=5e-5)


def test_tn_window_requires_min_weight3():
    cfg = ExperimentConfig(experiment="tn", dist=W2, n_values=(100,), trials=2, seed=1)
    with pytest.raises(InvalidParam):
        exp_tn_window(cfg)


def test_core_hypercycle_consistency():
    cfg = ExperimentConfig(experiment="core", dist=W3, n_values=(2000,), trials=5,
                           seed=12, alpha=0.95)
    res = exp_core_vs_theory(cfg)
    entry = res.summary["per_n"][2000]
    assert entry["hypercycle_violations"] == 0
    assert entry["more_rows_freq"] == 1.0  # well above alpha_bar


def test_core_trial_has_null_matches_full_rankstate():
    # has_null comes from the core elimination kernel; the oracle absorbs every
    # row of the matrix into a RankState over all n columns
    seen = set()
    for dist in (W3, parse_rho(FIG1_RHO)):
        a_star, a_bar = alpha_star(dist), alpha_bar(dist)
        alphas = (a_star - 0.03, (a_star + a_bar) / 2, a_bar + 0.03)
        for model in ("exact", "binomial"):
            for n in (30, 500):
                for alpha in alphas:
                    for seed in (1, 2):
                        cfg = SampleConfig(n, round(alpha * n), dist, model, seed)
                        rec, _ = _core_trial((cfg, True, 0.05))
                        mat = sample_matrix(cfg)
                        state = RankState(n)
                        for row in mat.rows:
                            state.absorb(row)
                        assert rec["has_null"] == int(state.corank > 0), (dist, model, n, alpha, seed)
                        assert state.corank <= rec["set_aside"] <= rec["core_rows"]
                        stats = peel_2core(Hypergraph.from_matrix(mat))
                        assert (rec["core_rows"], rec["occupied_cols"]) == (
                            stats.core_rows, stats.occupied_cols)
                        seen.add(rec["has_null"])
    assert seen == {0, 1}


def test_core_rows_exceed_cols_above_bar():
    # alpha = 0.93 sits in (alpha_bar_3, 1)
    cfg = ExperimentConfig(experiment="core", dist=W3, n_values=(20000,), trials=10,
                           seed=12, alpha=0.93)
    res = exp_core_vs_theory(cfg)
    assert res.summary["per_n"][20000]["more_rows_freq"] >= 0.95


def test_core_theory_sign_sequence_fig2():
    # the re-entrant mixture: psi(g_star) runs +, -, +, - as alpha increases
    dist = parse_rho("0.9183:3,0.04:19,0.0417:41")
    signs = [core_theory(dist, a).aspect_sign for a in (0.9905, 0.9908, 0.99110, 0.9920)]
    assert signs == [1, -1, 1, -1]


def test_null_growth_above_threshold_trend():
    cfg = ExperimentConfig(experiment="null-growth", dist=W3, n_values=(60, 120, 240),
                           trials=1, seed=0, alpha=0.95)
    res = exp_null_growth(cfg)
    assert res.summary["branch"] == "above"
    f = F_of_alpha(W3, 0.95)[0]
    rates = {n: res.summary["per_n"][n]["log_EN_over_n"] for n in (60, 120, 240)}
    assert abs(rates[60] - f) <= 0.05
    # past the low-weight-dominated sizes the rate climbs toward F from below
    assert rates[120] < rates[240] < f
    assert abs(rates[240] - f) < abs(rates[120] - f)


def test_classical_r2_matches_iid_limit():
    # duplicate rows are dependencies, so the tail of T_n follows
    # (1-z)^(1/2) e^(z/2) rather than the distinct-edge first-cycle law,
    # which the T_distinct tail follows instead
    cfg = ExperimentConfig(experiment="classical", dist=W2, n_values=(2000,),
                           trials=1500, seed=44, z=0.5)
    e = exp_classical_limits(cfg).summary["per_n"][2000]
    assert e["limit_tail_iid"] == pytest.approx(
        math.sqrt(0.5) * math.exp(0.25), abs=1e-12)
    assert e["abs_error_iid"] <= 0.025
    assert e["abs_error_iid"] < e["abs_error"]
    assert e["abs_error_distinct"] <= 0.025


def test_classical_r2_records_replay_stream():
    cfg = ExperimentConfig(experiment="classical", dist=W2, n_values=(40,),
                           trials=12, seed=3, z=0.5)
    repeats = 0
    for rec in exp_classical_limits(cfg).records:
        scfg = SampleConfig(n=40, m=0, dist=W2, seed=rec["seed"])
        assert rec["T_n"] == run_Tn(scfg)
        rng = make_rng(rec["seed"])
        distinct = len({sample_row(scfg, rng) for _ in range(rec["T_n"])})
        assert rec["T_distinct"] >= distinct
        if distinct == rec["T_n"]:
            assert rec["T_distinct"] == rec["T_n"]
        repeats += distinct < rec["T_n"]
    assert repeats >= 1  # the skip-and-continue branch ran


def test_classical_formula_decreases_to_zero():
    vals = [math.sqrt(1 - z) * math.exp(z / 2 + z * z / 4) for z in (0.5, 0.9, 0.99)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.45


def test_classical_r1_small():
    cfg = ExperimentConfig(experiment="classical", dist=WeightDist.fixed(1),
                           n_values=(10000,), trials=800, seed=21, z=1.0)
    res = exp_classical_limits(cfg)
    entry = res.summary["per_n"][10000]
    assert entry["limit_tail"] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert entry["abs_error"] <= 0.05


def test_classical_requires_r12():
    cfg = ExperimentConfig(experiment="classical", dist=W3, n_values=(100,),
                           trials=2, seed=0)
    with pytest.raises(InvalidParam):
        exp_classical_limits(cfg)


def test_dense_survival_small():
    cfg = ExperimentConfig(experiment="dense", dist=None, n_values=(25,), trials=3000,
                           seed=17, r_values=(1, 2, 3))
    res = exp_dense_survival(cfg)
    for r, entry in res.summary["per_n"][25].items():
        assert entry["abs_error"] <= 0.03


def test_dense_offsets_are_checked_before_any_trial(monkeypatch):
    # an offset r > n is refused before the first trial at every n, in the
    # runner and at the command line
    calls = []
    monkeypatch.setattr(experiments, "_dense_trial", calls.append)
    for n_values in ((5,), (10, 5)):
        cfg = ExperimentConfig(experiment="dense", dist=None, n_values=n_values, trials=3,
                               seed=1, r_values=(2, 7))
        with pytest.raises(InvalidParam, match=r"^need 1 <= r <= n; got r=7, n=5$"):
            exp_dense_survival(cfg)
    result = CliRunner().invoke(main, ["simulate", "--exp", "dense", "-n", "5", "--trials", "3",
                                       "--r-values", "7", "--threads", "1"])
    assert result.exit_code == 2
    assert result.stderr == "error: need 1 <= r <= n; got r=7, n=5\n"
    assert calls == []


def test_weight_profile_exact_small():
    cfg = ExperimentConfig(experiment="profile", dist=W2, n_values=(3,), trials=50,
                           seed=2, alpha=2.0 / 3.0)
    res = exp_weight_profile(cfg)
    entry = res.summary["per_n"][3]
    assert entry["m"] == 2
    assert entry["exact_profile"][2] == pytest.approx(0.25, abs=1e-12)
    assert sum(entry["exact_profile"].values()) == pytest.approx(1.0, abs=1e-12)


def test_weight_profile_tv_distance():
    cfg = ExperimentConfig(experiment="profile", dist=W3, n_values=(10,), trials=1000,
                           seed=6, alpha=0.8)
    res = exp_weight_profile(cfg)
    entry = res.summary["per_n"][10]
    assert entry["m"] == 8
    assert entry["tv_distance"] <= 0.05


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(experiment="dense", dist=None, n_values=(10,), trials=5, seed=1)
    res = run_experiment(cfg)
    assert res.experiment == "dense"
    with pytest.raises(InvalidParam):
        ExperimentConfig(experiment="nope", dist=None, n_values=(10,), trials=5, seed=1)


def test_write_records_csv(tmp_path):
    cfg = ExperimentConfig(experiment="dense", dist=None, n_values=(10,), trials=4, seed=1)
    res = run_experiment(cfg)
    out = tmp_path / "records.csv"
    write_records_csv(str(out), res.records, "# dense, seed 1")
    lines = out.read_text().splitlines()
    assert lines[0] == "# dense, seed 1"
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",") == list(res.records[0].keys())
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + len(res.records)
