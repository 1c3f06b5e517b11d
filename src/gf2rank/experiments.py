"""Monte Carlo harness confronting simulation with the analytic limits.

Every experiment is reproducible from (experiment id, seed, config): trial t
of the ni-th n draws its stream from PCG64 seeded by ``derive_stream_seed``
from the pair (seed, ni * trials + t), a SeedSequence hash, so fan-out order
does not matter and parallel and serial runs aggregate identically.
``run_trials`` alone derives those seeds and opens the process pool, one
per run.  It writes the record prefix (experiment, n, trial, seed) and puts
each n's entry under ``per_n``; an experiment gives it a worker, the
worker's argument, the record fields and the per-n entry.  Every experiment
that runs trials goes through it, and so does the ``tn`` command, which
writes its CSV columns from the records.
"""

from __future__ import annotations

import csv
import math
import os

import mpmath as mp
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .errors import InvalidParam, check_work
from .exact import expected_null_count, gfq_dense_survival
from .gf2 import RankState, enumerate_null_vectors
from .peeling import Hypergraph, check_E, corank, eliminate_core, peel_2core
from .sampling import (SampleConfig, check_Tn, derive_stream_seed, make_rng, run_Tn, sample_matrix,
                       stream_rows)
from .thresholds import (
    F_of_alpha,
    alpha_bar,
    alpha_star,
    core_theory,
)
from .weights import WeightDist


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dist: WeightDist | None
    n_values: tuple
    trials: int
    seed: int
    alpha: float = 0.95
    model: str = "exact"
    eps: float = 0.05         # core-size threshold in E(n, m; eps)
    window_eps: float = 0.02  # slack around [alpha_star, alpha_bar] for T_n
    z: float = 1.0            # tail point for the classical r=1,2 limits
    r_values: tuple = (1, 2, 3, 4, 5)  # dense-model survival offsets
    threads: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParam(f"experiment {self.experiment!r} not in {EXPERIMENTS}")
        if self.trials < 1:
            raise InvalidParam(f"trials {self.trials} < 1")
        if self.seed < 0:
            raise InvalidParam(f"seed {self.seed} < 0")
        if self.threads < 1:
            raise InvalidParam(f"threads {self.threads} < 1")
        for name in ("alpha", "eps", "window_eps", "z"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParam(f"{name} {getattr(self, name)} is not finite")
        if not self.eps > 0:
            raise InvalidParam(f"eps {self.eps} is not > 0")


@dataclass
class ExperimentResult:
    experiment: str
    records: list
    summary: dict


def _ci95(p: float, n: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


# --- workers (module level so the process pool can pickle them) -----------

def _classical_r2_trial(cfg: SampleConfig):
    """(T_n, T_distinct) from one stream of weight-2 rows.

    T_n is what run_Tn returns on the same stream.  T_distinct is the number
    of distinct rows at the first dependency among distinct rows, i.e. the
    first-cycle time of the distinct-edge graph process read off the same
    draws with repeated rows skipped.  Before T_n every row is new (a repeat
    is itself a dependency), so the two differ only when the T_n row repeats
    an earlier one.
    """
    check_Tn(cfg)
    state = RankState(cfg.n)
    seen = set()
    t_n = 0
    for row in stream_rows(cfg):
        if row in seen:
            t_n = t_n or len(seen) + 1
            continue
        seen.add(row)
        if state.absorb(row):
            return t_n or len(seen), len(seen)


def _core_trial(payload):
    """(stats, E) for one matrix: the core stats as record fields, and
    whether E(n, m; eps) holds.  A trial that eliminates also records
    has_null and set_aside, the rows the elimination set aside (|S|)."""
    cfg, check_corank, eps = payload
    h = Hypergraph(sample_matrix(cfg))
    if check_corank:
        stats, sigma, set_aside = eliminate_core(h)
    else:
        stats = peel_2core(h)
    rec = {
        "core_rows": stats.core_rows,
        "occupied_cols": stats.occupied_cols,
        "incidences": stats.incidences,
        "eps_max": stats.core_rows / cfg.n,
        "more_rows": int(stats.core_rows > stats.occupied_cols),
    }
    if check_corank:
        rec["has_null"] = int(sigma > 0)
        rec["set_aside"] = set_aside
    return rec, check_E(stats, cfg.n, eps)


def _corank_trial(cfg: SampleConfig):
    return corank(sample_matrix(cfg))


def _profile_trial(cfg: SampleConfig):
    _, profile = enumerate_null_vectors(sample_matrix(cfg))
    return profile


def _dense_trial(payload):
    n, stream_seed = payload
    rng = make_rng(stream_seed)
    state = RankState(n)
    m = 0
    top = (1 << n) - 1
    while True:
        m += 1
        row = int(rng.integers(1, top, endpoint=True))
        if state.absorb(row):
            return m


# --- experiments ------------------------------------------------------------

def run_trials(cfg: ExperimentConfig, worker, payload, fields, entry,
               **summary) -> ExperimentResult:
    """Run cfg.trials trials of worker at each n of cfg.n_values.

    Trial t at the ni-th n gets the stream seed derived from
    (cfg.seed, ni * cfg.trials + t), worker(payload(n, seed)) and the record
    {experiment, n, trial, seed, **fields(n, result)}; per_n[n] is
    entry(n, results), with results in trial order.  The summary is
    **summary followed by per_n.  The trials run serially or, for the whole
    run, over one pool of min(cfg.threads, trials, CPUs) processes: a result
    depends only on its seed, so the pool size changes none of them.  The
    run's trial count is checked against the "trials" work budget first.
    """
    check_work("trials", cfg.trials * len(cfg.n_values))
    width = min(cfg.threads, cfg.trials, os.cpu_count() or 1)
    chunk = max(1, cfg.trials // (width * 4))
    records, per_n = [], {}
    with ProcessPoolExecutor(max_workers=width) if width > 1 else nullcontext() as pool:
        for ni, n in enumerate(cfg.n_values):
            seeds = [derive_stream_seed(cfg.seed, ni * cfg.trials + t) for t in range(cfg.trials)]
            payloads = [payload(n, s) for s in seeds]
            results = (list(pool.map(worker, payloads, chunksize=chunk)) if pool
                       else [worker(p) for p in payloads])
            records += [{"experiment": cfg.experiment, "n": n, "trial": t, "seed": seed,
                         **fields(n, res)} for t, (seed, res) in enumerate(zip(seeds, results))]
            per_n[n] = entry(n, results)
    return ExperimentResult(cfg.experiment, records, {**summary, "per_n": per_n})


def exp_tn_window(cfg: ExperimentConfig) -> ExperimentResult:
    """Empirical law of T_n/n against the window [alpha_star - eps, alpha_bar + eps].

    The mean of T_n/n is reported as-is, with no assertion attached.  For
    reference, n_values (500, 2000, 10000), 30 trials, seed 5 gave means
    (standard errors) of 0.91513 (0.00326), 0.91975 (0.00136) and 0.91749
    (0.00054) for r=3, against alpha_bar = 0.91794, and 0.98453 (0.00178),
    0.98860 (0.00100) and 0.99025 (0.00041) for FIG2, against
    alpha_bar = 0.99069.  Trial seeds depend on the position of n in
    n_values, so other n_values give other trials at the same n.
    """
    dist = cfg.dist
    if dist.min_weight < 3:
        raise InvalidParam("T_n window experiment requires min_weight >= 3")
    a_star = alpha_star(dist)
    a_bar = alpha_bar(dist)
    lo, hi = a_star - cfg.window_eps, a_bar + cfg.window_eps

    def entry(n, ts):
        ratios = [t / n for t in ts]
        inside = sum(1 for x in ratios if lo <= x <= hi) / cfg.trials
        return {
            "in_window": inside,
            "in_window_ci95": _ci95(inside, cfg.trials),
            "mean_ratio": sum(ratios) / cfg.trials,
            "max_T": max(ts),
            "all_le_n_plus_1": all(t <= n + 1 for t in ts),
        }

    return run_trials(cfg, run_Tn, lambda n, s: SampleConfig(n, 0, dist, cfg.model, s),
                      lambda n, t: {"T_n": t, "ratio": t / n}, entry,
                      alpha_star=a_star, alpha_bar=a_bar, window=[lo, hi])


def exp_core_vs_theory(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean core fractions against the limit law, plus the aspect-ratio sign.

    At n <= 5000, trials whose core has more rows than occupied columns also
    verify corank >= 1 directly, the pigeonhole consequence of a hypercycle;
    larger n only peel.
    """
    th = core_theory(cfg.dist, cfg.alpha)
    m_of = lambda n: round(cfg.alpha * n)

    def entry(n, out):
        recs, e_flags = zip(*out)
        mean = lambda k: sum(r[k] for r in recs) / (cfg.trials * n)
        stats = {
            "m": m_of(n),
            "rows_frac": mean("core_rows"),
            "cols_frac": mean("occupied_cols"),
            "inc_frac": mean("incidences"),
            "theory_rows": th.core_row_frac,
            "theory_cols": th.occupied_col_frac,
            "theory_inc": th.incidence_frac,
            "aspect_sign_theory": th.aspect_sign,
            "more_rows_freq": sum(r["more_rows"] for r in recs) / cfg.trials,
            "E_freq": sum(e_flags) / cfg.trials,
        }
        if "has_null" in recs[0]:
            stats["hypercycle_violations"] = sum(
                1 for r in recs if r["more_rows"] and not r["has_null"])
        return stats

    return run_trials(cfg, _core_trial,
                      lambda n, s: (SampleConfig(n, m_of(n), cfg.dist, cfg.model, s), n <= 5000,
                                    cfg.eps),
                      lambda n, res: {"m": m_of(n), **res[0]}, entry, alpha=cfg.alpha)


def exp_null_growth(cfg: ExperimentConfig) -> ExperimentResult:
    """Null-count growth on either side of alpha_star.

    Below alpha_star: Monte Carlo over coranks; reports
    n^(r0-2) (mean(2^sigma) - 1) per n, which should stay bounded in n.
    At or above alpha_star: exact (1/n) log E[N] per n against F(alpha),
    with no trials and so no records.
    """
    dist = cfg.dist
    a_star = alpha_star(dist)
    m_of = lambda n: round(cfg.alpha * n)
    if cfg.alpha < a_star:
        r0 = dist.min_weight

        def entry(n, sigmas):
            mean_count = sum(2**s for s in sigmas) / cfg.trials
            return {"m": m_of(n), "mean_null_count": mean_count,
                    "scaled_excess": n ** (r0 - 2) * (mean_count - 1.0)}

        return run_trials(cfg, _corank_trial,
                          lambda n, s: SampleConfig(n, m_of(n), dist, cfg.model, s),
                          lambda n, s: {"corank": s}, entry,
                          alpha=cfg.alpha, alpha_star=a_star, branch="below", r0=r0)
    f_alpha = F_of_alpha(dist, cfg.alpha)[0]
    per_n = {}
    for n in cfg.n_values:
        total, _ = expected_null_count(n, m_of(n), dist, model=cfg.model)
        per_n[n] = {"m": m_of(n), "log_EN_over_n": float(mp.log(total)) / n, "F_alpha": f_alpha}
    summary = {"alpha": cfg.alpha, "alpha_star": a_star, "branch": "above", "per_n": per_n}
    return ExperimentResult(cfg.experiment, [], summary)


def exp_classical_limits(cfg: ExperimentConfig) -> ExperimentResult:
    """Tails of T_n for the classical fixed weights r = 1 and r = 2.

    r = 1: P[T_n > z sqrt(n)] -> exp(-z^2/2)  (birthday problem).
    r = 2: the classical first-cycle law of the distinct-edge graph process is
    (1-z)^(1/2) exp(z/2 + z^2/4), reported as ``limit_tail``.  Rows here are
    i.i.d., so a duplicate weight-2 row (probability Theta(1) by time z n/2)
    is itself a dependency; summing Poisson cycle counts over lengths k >= 2
    instead of k >= 3 multiplies the tail by exp(-z^2/4), reported as
    ``limit_tail_iid``.  ``empirical_tail`` is the tail of T_n and follows
    the iid value; ``abs_error`` is its distance to ``limit_tail``, the gap
    between the two laws (about 0.058 at z = 0.5).

    For r = 2 each trial also reads its stream on with repeated rows skipped
    and records ``T_distinct``, the number of distinct rows at the first
    dependency among distinct rows: the distinct-edge process itself, drawn
    from the same per-trial stream as T_n.  Its tail is reported as
    ``empirical_tail_distinct``, with ``abs_error_distinct`` against
    ``limit_tail``.
    """
    dist = cfg.dist
    if dist.atoms not in (((1, 1),), ((2, 1),)):
        raise InvalidParam("classical limits are for the fixed weights r=1 or r=2")
    r = dist.min_weight
    z = cfg.z
    z_hi = 1.0 if r == 2 else math.inf
    if not 0.0 <= z <= z_hi:
        raise InvalidParam(f"z {z} outside [0, {z_hi:g}], where the r={r} law is defined")
    if r == 2 and min(cfg.n_values) < 3:  # one possible row, so no cycle of distinct rows
        raise InvalidParam(f"the r=2 distinct-edge process needs n >= 3; n={min(cfg.n_values)}")
    limit = (math.exp(-z * z / 2.0) if r == 1
             else math.sqrt(1.0 - z) * math.exp(z / 2.0 + z * z / 4.0))

    def entry(n, out):
        ts, ds = (out, None) if r == 1 else zip(*out)
        cut = z * math.sqrt(n) if r == 1 else z * n / 2.0
        tail = lambda xs: sum(1 for x in xs if x > cut) / cfg.trials
        emp = tail(ts)
        stats = {"z": z, "empirical_tail": emp, "limit_tail": limit,
                 "ci95": _ci95(emp, cfg.trials), "abs_error": abs(emp - limit)}
        if r == 2:
            iid_limit = math.sqrt(1.0 - z) * math.exp(z / 2.0)
            emp_distinct = tail(ds)
            stats["limit_tail_iid"] = iid_limit
            stats["abs_error_iid"] = abs(emp - iid_limit)
            stats["empirical_tail_distinct"] = emp_distinct
            stats["abs_error_distinct"] = abs(emp_distinct - limit)
        return stats

    if r == 1:
        worker, fields = run_Tn, lambda n, t: {"T_n": t}
    else:
        worker, fields = _classical_r2_trial, lambda n, res: {"T_n": res[0], "T_distinct": res[1]}
    return run_trials(cfg, worker, lambda n, s: SampleConfig(n, 0, dist, cfg.model, s),
                      fields, entry, r=r)


def exp_dense_survival(cfg: ExperimentConfig) -> ExperimentResult:
    """Uniform nonzero GF(2) rows: empirical P[T_n > n+1-r] against the exact
    finite-n product, for each offset r in cfg.r_values.  The exact values,
    and with them the check 1 <= r <= n, come before any trial."""
    for n in cfg.n_values:
        if not 1 <= n <= 62:
            raise InvalidParam(f"dense survival sampler needs 1 <= n <= 62 (a row in one word); n={n}")
    exact = {n: {r: gfq_dense_survival(2, r, n) for r in cfg.r_values} for n in cfg.n_values}

    def entry(n, ts):
        tails = {}
        for r, exact_val in exact[n].items():
            emp = sum(1 for t in ts if t > n + 1 - r) / cfg.trials
            tails[r] = {"empirical": emp, "exact": exact_val,
                        "ci95": _ci95(emp, cfg.trials), "abs_error": abs(emp - exact_val)}
        return tails

    return run_trials(cfg, _dense_trial, lambda n, s: (n, s), lambda n, t: {"T_n": t}, entry, q=2)


def exp_weight_profile(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact weight profile of the null space versus the empirical histogram
    of enumerated null vectors (small n, m <= 24)."""
    m_of = lambda n: round(cfg.alpha * n)

    def entry(n, profs):
        total, profile = expected_null_count(n, m_of(n), cfg.dist, model=cfg.model)
        exact_profile = {l: float(v / total) for l, v in profile.items()}
        counts: dict = {}
        grand = 0
        for prof in profs:
            for l, c in prof.items():
                counts[l] = counts.get(l, 0) + c
                grand += c
        empirical = {l: c / grand for l, c in counts.items()}
        tv = 0.5 * sum(abs(exact_profile.get(l, 0.0) - empirical.get(l, 0.0))
                       for l in set(exact_profile) | set(empirical))
        return {"m": m_of(n), "tv_distance": tv,
                "exact_profile": exact_profile, "empirical_profile": empirical}

    return run_trials(cfg, _profile_trial,
                      lambda n, s: SampleConfig(n, m_of(n), cfg.dist, cfg.model, s),
                      lambda n, prof: {"null_vectors": sum(prof.values())}, entry, alpha=cfg.alpha)


# experiment id -> (runner, the ExperimentConfig fields it reads besides
# n_values, trials, seed and threads, which every experiment reads)
_RUNNERS = {
    "tn": (exp_tn_window, ("dist", "model", "window_eps")),
    "core": (exp_core_vs_theory, ("dist", "model", "alpha", "eps")),
    "null-growth": (exp_null_growth, ("dist", "model", "alpha")),
    "classical": (exp_classical_limits, ("dist", "model", "z")),
    "profile": (exp_weight_profile, ("dist", "model", "alpha")),
    "dense": (exp_dense_survival, ("r_values",)),
}


EXPERIMENTS = tuple(_RUNNERS)
FIELDS_READ = {name: fields for name, (_, fields) in _RUNNERS.items()}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return _RUNNERS[cfg.experiment][0](cfg)


def write_records_csv(path: str, records: list, header: str) -> None:
    """Per-trial records as CSV after one header line, such as the
    '#' provenance line of the CLI.  The columns are every record's keys in
    first-seen order; a record without a column leaves its cell empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        if not records:
            return
        writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(k for r in records for k in r)))
        writer.writeheader()
        writer.writerows(records)
