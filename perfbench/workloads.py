"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, one round at a
time, and runs one op per input by calling the library's public functions
through a tracer (``NullTracer`` in the untraced run).  ``check`` verifies an
op's output outside the timed region and returns the failures it found.

Inputs of round k come from ``SeedSequence(seed, spawn_key=(0, k, ...))``
and the warm-up input from ``spawn_key=(1, ...)``, so no timed op repeats
the warm-up and every round is fixed by the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import mpmath as mp
import numpy as np

from gf2rank import (
    Hypergraph,
    RankState,
    SampleConfig,
    WeightDist,
    alpha_bar,
    alpha_sharp,
    alpha_star,
    core_theory,
    corank,
    discontinuities,
    expected_null_count,
    make_rng,
    parse_rho,
    peel_2core,
    pi_multinomial,
    run_Tn,
    sample_matrix,
    sample_row,
    threshold_report,
)
from gf2rank.verification import FIG1_RHO, FIG2_RHO, FIG8_RHO, TABLE1, TABLE1_TOL

from tracer import NullTracer

TIMED, WARMUP = 0, 1


def stream_seed(seed: int, *key: int) -> int:
    """128-bit seed for one input, fixed by the workload seed and the key."""
    w = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
    return int(w[0]) | (int(w[1]) << 64)


def key_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class Item:
    stratum: str
    args: tuple


class Workload:
    """Interface of a workload; see the module docstring."""

    name: str
    min_ops: int        # a run has at least this many ops
    calibration: str    # kind of speed calibration, see speed.CALIBRATIONS
    counts: dict        # per-layer counters, filled by check()

    def rounds(self):
        """Infinite iterator of rounds, each a list of Items."""
        raise NotImplementedError

    def warmup_item(self) -> Item:
        raise NotImplementedError

    def op(self, item: Item, tr):
        raise NotImplementedError

    def check(self, item: Item, out, op_index: int) -> list:
        """Failures found in one op's output; empty when it is correct."""
        raise NotImplementedError

    def run_checks(self) -> list:
        """Failures of checks made once per run."""
        return []


# --- mc-core -----------------------------------------------------------------

CORE_N, CORE_M = 10000, 9500
CORE_STRATA = (("r=3", "r=3"), ("fig1", FIG1_RHO))
# Core fractions fluctuate by O(n^-1/2), about 0.006 at n = 10000.  Near a
# jump of g_star a finite-n core can also sit on the lower branch: fig1 has a
# jump at alpha = 0.9385, and about 1 trial in 30 at alpha = 0.95 keeps a core
# of 0.57 n rows instead of 0.86 n.  So the observed fraction is checked
# against core_theory over [alpha - CORE_ALPHA_WINDOW, alpha + CORE_ALPHA_WINDOW]
# (the fractions grow with alpha), widened by CORE_FRAC_TOL.
CORE_FRAC_TOL = 0.03
CORE_ALPHA_WINDOW = 0.02


def core_corank_oracle(h: Hypergraph, core_ids) -> int:
    """Corank of the 2-core rows alone, by RankState.

    Peeled rows are independent of the rest, so this equals the corank of the
    whole matrix.  Columns are relabelled in ascending core degree first,
    which leaves the rank unchanged and roughly halves the elimination time.
    """
    deg = h.vertex_degree
    pos = [0] * h.n_vertices
    for i, v in enumerate(sorted(range(h.n_vertices), key=deg.__getitem__)):
        pos[v] = i
    state = RankState(h.n_vertices)
    for e in core_ids:
        row = 0
        for v in h.edges[e]:
            row |= 1 << pos[v]
        state.absorb(row)
    return state.corank


class McCore(Workload):
    """sample_matrix -> Hypergraph.from_matrix -> peel_2core -> corank."""

    name = "mc-core"
    min_ops = 20  # op_s_tail needs 20 ops; corank_sum is summed over these
    calibration = "bigint"

    def __init__(self, seed: int):
        self.seed = seed
        self.dists = [(label, parse_rho(spec)) for label, spec in CORE_STRATA]
        alpha = CORE_M / CORE_N
        self.theory = {label: (core_theory(d, alpha - CORE_ALPHA_WINDOW),
                               core_theory(d, alpha + CORE_ALPHA_WINDOW))
                       for label, d in self.dists}
        self.counts = {"rows": 0, "core_rows": 0, "corank_sum": 0}

    def _round(self, *key):
        return [Item(label, (SampleConfig(CORE_N, CORE_M, d, seed=stream_seed(self.seed, *key, j)),))
                for j, (label, d) in enumerate(self.dists)]

    def rounds(self):
        for k in count():
            yield self._round(TIMED, k)

    def warmup_item(self) -> Item:
        return self._round(WARMUP)[0]

    def op(self, item: Item, tr):
        (cfg,) = item.args
        mat = tr.call("sampling.sample_matrix", sample_matrix, cfg)
        h = tr.call("peeling.from_matrix", Hypergraph.from_matrix, mat)
        stats = tr.call("peeling.peel_2core", peel_2core, h)
        sigma = tr.call("gf2.corank", corank, mat)
        return mat, h, stats, sigma

    def check(self, item: Item, out, op_index: int) -> list:
        (cfg,) = item.args
        mat, h, stats, sigma = out
        fails = []
        if mat.m != cfg.m or mat.n_cols != cfg.n:
            fails.append(f"matrix shape {mat.m}x{mat.n_cols}")
        oracle = core_corank_oracle(h, stats.core_edge_ids)
        if sigma != oracle:
            fails.append(f"corank {sigma} != core RankState corank {oracle}")
        if sigma < stats.core_rows - stats.occupied_cols:
            fails.append(f"corank {sigma} < core rows - occupied cols")
        lo, hi = self.theory[item.stratum]
        for what, got, low, high in (
                ("core rows", stats.core_rows, lo.core_row_frac, hi.core_row_frac),
                ("occupied cols", stats.occupied_cols, lo.occupied_col_frac, hi.occupied_col_frac)):
            if not low - CORE_FRAC_TOL <= got / cfg.n <= high + CORE_FRAC_TOL:
                fails.append(f"{what}/n {got / cfg.n:.4f} outside core_theory "
                             f"[{low:.4f}, {high:.4f}] +- {CORE_FRAC_TOL}")
        self.counts["rows"] += cfg.m
        self.counts["core_rows"] += stats.core_rows
        if op_index < self.min_ops:
            self.counts["corank_sum"] += sigma
        return fails


# --- mc-tn -------------------------------------------------------------------

TN_STRATA = (  # label, weight, n, row model
    ("r=3 exact n=3000", 3, 3000, "exact"),
    ("r=2 exact n=5000", 2, 5000, "exact"),
    ("r=3 binomial n=3000", 3, 3000, "binomial"),
)


def replay_Tn(cfg: SampleConfig, tr) -> int:
    """run_Tn rebuilt from make_rng, sample_row and RankState.absorb."""
    rng = tr.call("sampling.make_rng", make_rng, cfg.seed)
    state = tr.call("gf2.RankState", RankState, cfg.n)
    for m in range(1, cfg.n + 2):
        row = tr.call("sampling.sample_row", sample_row, cfg, rng)
        if tr.call("gf2.absorb", state.absorb, row):
            return m
    return cfg.n + 2  # impossible for a correct RankState; the check reports it


class McTn(Workload):
    """One run_Tn trial per op; the traced run also replays it row by row."""

    name = "mc-tn"
    min_ops = 100  # op_s_tail then sits at the 90th percentile or above; rows_drawn sums these
    calibration = "bigint"

    def __init__(self, seed: int):
        self.seed = seed
        self.strata = [(label, WeightDist.fixed(r), n, model) for label, r, n, model in TN_STRATA]
        self.counts = {"rows_drawn": 0}

    def _round(self, *key):
        return [Item(label, (SampleConfig(n, 0, d, model=model, seed=stream_seed(self.seed, *key, j)),))
                for j, (label, d, n, model) in enumerate(self.strata)]

    def rounds(self):
        for k in count():
            yield self._round(TIMED, k)

    def warmup_item(self) -> Item:
        return self._round(WARMUP)[0]

    def op(self, item: Item, tr):
        (cfg,) = item.args
        t_n = tr.call("sampling.run_Tn", run_Tn, cfg)
        return t_n, (replay_Tn(cfg, tr) if tr.enabled else None)

    def check(self, item: Item, out, op_index: int) -> list:
        (cfg,) = item.args
        t_n, replayed = out
        if replayed is None:
            replayed = replay_Tn(cfg, NullTracer())
        fails = []
        if not 1 <= t_n <= cfg.n + 1:
            fails.append(f"T_n {t_n} outside [1, {cfg.n + 1}]")
        if replayed != t_n:
            fails.append(f"replayed first dependency {replayed} != run_Tn {t_n}")
        if op_index < self.min_ops:
            self.counts["rows_drawn"] += t_n
        return fails


# --- threshold-reports -------------------------------------------------------

CORE_ALPHAS = (0.85, 0.92, 0.97)
MIX_WEIGHTS = (3, 40)   # random mixtures: 1-3 atoms with weights in this range
MIX_MAX_ATOMS = 3
FIG_TOL = 5e-5          # the tolerance of the verification fig suites
# Values checked by the verification fig suites.
FIG_REFERENCE = {
    "fig1": {"alpha_sharp": 0.908654, "alpha_bar": 0.991613, "x_star": 0.987817,
             "jumps": ((0.908654, 0.0, 0.719682), (0.938536, 0.835696, 0.964919))},
    "fig2": {"alpha_sharp": 0.890061, "alpha_bar": 0.990686,
             "jumps": (None, (0.991044, 0.929269, 0.973325))},
    "fig8": {"alpha_bar": 0.998263},
}
# Outside the mixture weight range, so no timed op can draw it.
WARMUP_RHO = "0.5:4,0.5:45"


def fixed_threshold_dists() -> list:
    dists = [(f"table1 r={r}", WeightDist.fixed(r)) for r in TABLE1]
    dists += [(label, parse_rho(spec)) for label, spec in
              (("fig1", FIG1_RHO), ("fig2", FIG2_RHO), ("fig8", FIG8_RHO))]
    return dists


def _close(fails: list, what: str, got, want: float, tol: float) -> None:
    if got is None or abs(got - want) > tol:
        fails.append(f"{what} {got} vs {want} (tol {tol})")


class ThresholdReports(Workload):
    """threshold_report plus core_theory at three alphas, one distribution per op."""

    name = "threshold-reports"
    min_ops = 30  # 15 rounds: all 11 fixed distributions and 19 mixtures in every run
    calibration = "mixed"  # float sweeps and root finders, plus Python-level bookkeeping

    def __init__(self, seed: int):
        self.seed = seed
        self.fixed = fixed_threshold_dists()
        self.counts = {}

    def _mixtures(self):
        """Random mixtures, each distinct from every other op's distribution.

        The atom count cycles through 1..MIX_MAX_ATOMS, so every run has the
        same share of single atoms, pairs and triples; weights and
        probabilities are drawn from the seed.
        """
        rng = key_rng(self.seed, TIMED)
        seen = {d.atoms for _, d in self.fixed}
        lo, hi = MIX_WEIGHTS
        for i in count():
            k = 1 + i % MIX_MAX_ATOMS
            while True:
                ks = sorted(rng.choice(np.arange(lo, hi + 1), size=k, replace=False).tolist())
                ps = rng.dirichlet(np.ones(k)).tolist()
                d = WeightDist(tuple(zip(ks, (p / sum(ps) for p in ps))))
                if d.atoms not in seen:
                    break
            seen.add(d.atoms)
            yield Item("mixture " + ",".join(f"{p:.4g}:{w}" for w, p in d.atoms), (d,))

    def rounds(self):
        """Round k pairs fixed distribution k with a mixture, then two mixtures."""
        mixtures = self._mixtures()
        for label, d in self.fixed:
            yield [Item(label, (d,)), next(mixtures)]
        while True:
            yield [next(mixtures), next(mixtures)]

    def warmup_item(self) -> Item:
        return Item("warm-up", (parse_rho(WARMUP_RHO),))

    def op(self, item: Item, tr):
        (d,) = item.args
        rep = tr.call("thresholds.threshold_report", threshold_report, d)
        parts = None
        if tr.enabled:  # the components, called one by one as the verification suites do
            parts = {
                "alpha_sharp": tr.call("thresholds.alpha_sharp", alpha_sharp, d)[0],
                "alpha_star": tr.call("thresholds.alpha_star", alpha_star, d),
                "discontinuities": tuple(tr.call("thresholds.discontinuities", discontinuities, d)),
            }
            if d.min_weight >= 3:
                parts["alpha_bar"] = tr.call("thresholds.alpha_bar", alpha_bar, d)
        cores = []
        if d.min_weight >= 3:
            cores = [tr.call("thresholds.core_theory", core_theory, d, a) for a in CORE_ALPHAS]
        return rep, parts, cores

    def check(self, item: Item, out, op_index: int) -> list:
        rep, parts, cores = out
        fails = []
        label = item.stratum
        if label.startswith("table1"):
            r = item.args[0].min_weight
            sharp, star, bar = TABLE1[r]
            _close(fails, "alpha_sharp", rep.alpha_sharp, sharp, TABLE1_TOL)
            _close(fails, "alpha_star", rep.alpha_star, star, TABLE1_TOL)
            if bar is None:
                if rep.alpha_bar is not None:
                    fails.append(f"alpha_bar {rep.alpha_bar} for min weight {r}")
            else:
                _close(fails, "alpha_bar", rep.alpha_bar, bar, TABLE1_TOL)
        ref = FIG_REFERENCE.get(label, {})
        for key in ("alpha_sharp", "alpha_bar", "x_star"):
            if key in ref:
                _close(fails, key, getattr(rep, key), ref[key], FIG_TOL)
        if "jumps" in ref:
            if len(rep.discontinuities) != len(ref["jumps"]):
                fails.append(f"{len(rep.discontinuities)} jumps, want {len(ref['jumps'])}")
            else:
                for j, (got, want) in enumerate(zip(rep.discontinuities, ref["jumps"])):
                    for g, w in zip(got, want or ()):
                        _close(fails, f"jump[{j}]", g, w, FIG_TOL)
        for key in ("alpha_sharp", "alpha_star"):
            if not 0.0 <= getattr(rep, key) <= 1.0:
                fails.append(f"{key} {getattr(rep, key)} outside [0, 1]")
        if parts is not None:
            for key, got in parts.items():
                want = getattr(rep, key)
                if got != want:
                    fails.append(f"component {key} {got} != report {want}")
        for c in cores:
            # g_star rounds to 1.0 once 1 - g_star < 1e-16, as for heavy weights
            if not (0.0 <= c.g_star <= 1.0 and 0.0 <= c.core_row_frac <= c.alpha
                    and 0.0 <= c.occupied_col_frac <= 1.0):
                fails.append(f"core_theory at alpha={c.alpha} out of range: {c}")
        return fails


# --- exact-sums --------------------------------------------------------------

EXACT_DIST = "r=3"
EN_BANDS = ((60, 89), (90, 119), (120, 149))
PI_NS = (1000, 2000, 4000)
CHECK_PRECISION = 512
# Each guarded sum is within 1e-15 relative of the true value, so two of
# them are within 2e-15 of each other; 1e-14 leaves room for the final rounding.
AGREE_REL = 1e-14
SMALL_CASE = (14, 13)  # checked once per run against exact=True


def spread_order(width: int) -> list:
    """0..width-1 in bit-reversed order: every prefix spreads evenly over the range."""
    bits = max(width - 1, 1).bit_length()
    rev = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [p for p in rev if p < width]


def en_m(n: int) -> int:
    return round(0.95 * n)


def probabilities_computed(m: int, dist: WeightDist) -> int:
    """All-even probabilities an E[N] sum at m rows evaluates: one per l in
    0..m, except odd l when every weight is odd (those are zero by parity)."""
    if all(k % 2 for k, _ in dist.atoms):
        return m // 2 + 1
    return m + 1


def _en_exact(n, m, d, precision=256):
    return expected_null_count(n, m, d, model="exact", precision=precision)[0]


def _en_binomial(n, m, d, precision=256):
    return expected_null_count(n, m, d, model="binomial", precision=precision)[0]


class ExactSums(Workload):
    """expected_null_count in both row models and pi_multinomial, one call per op."""

    name = "exact-sums"
    min_ops = 36  # 4 rounds, so every run covers each band at the same 4 points
    calibration = "float"  # mpmath's pure-Python arithmetic

    CALLS = {
        "en-exact": ("exact.en_exact", _en_exact),
        "en-binomial": ("exact.en_binomial", _en_binomial),
        "pi": ("exact.pi_multinomial", pi_multinomial),
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.dist = parse_rho(EXACT_DIST)
        self.counts = {"terms": 0}

    def rounds(self):
        """Round k: E[N] at one n per band in both models, then pi at each n.

        Each band is cut into pairs of adjacent n; round k takes pair
        ``spread_order(pairs)[k]`` and the seed picks one n of the pair.  So
        no n repeats before the band is used up, and every run covers the
        band evenly: the seed moves each n by at most one, which keeps the
        mix of op costs, and so the median, the same from seed to seed.
        pi's m is drawn without repeats from a seeded permutation of the even
        values in [0.9 n, n]; even, so that the sum is not a structural zero.
        """
        rng = key_rng(self.seed, TIMED)
        orders = [spread_order((hi - lo + 1) // 2) for lo, hi in EN_BANDS]
        pi_ms = [rng.permutation(np.arange(math.ceil(0.45 * n), n // 2 + 1) * 2) for n in PI_NS]
        for k in count():
            items = []
            for (lo, _), order in zip(EN_BANDS, orders):
                n = lo + 2 * order[k % len(order)] + int(rng.integers(2))
                items += [Item("en-exact", (n, en_m(n))), Item("en-binomial", (n, en_m(n)))]
            for n, ms in zip(PI_NS, pi_ms):
                items.append(Item("pi", (n, int(ms[k % len(ms)]))))
            yield items

    def warmup_item(self) -> Item:
        return Item("en-exact", (59, en_m(59)))  # below the smallest band

    def terms(self, item: Item) -> int:
        n, m = item.args
        per_prob = n + 1
        return per_prob if item.stratum == "pi" else probabilities_computed(m, self.dist) * per_prob

    def op(self, item: Item, tr):
        name, fn = self.CALLS[item.stratum]
        return tr.call(name, fn, *item.args, self.dist)

    def check(self, item: Item, out, op_index: int) -> list:
        _, fn = self.CALLS[item.stratum]
        ref = fn(*item.args, self.dist, CHECK_PRECISION)
        self.counts["terms"] += self.terms(item)
        if not _agree(out, ref):
            return [f"{item.stratum}{item.args}: {mp.nstr(out, 20)} vs "
                    f"{CHECK_PRECISION}-bit {mp.nstr(ref, 20)}"]
        return []

    def run_checks(self) -> list:
        n, m = SMALL_CASE
        fails = []
        for model in ("exact", "binomial"):
            got = expected_null_count(n, m, self.dist, model=model)[0]
            want = expected_null_count(n, m, self.dist, model=model, exact=True)[0]
            if not _agree(got, mp.mpf(want.numerator) / want.denominator):
                fails.append(f"E[N] {model} n={n} m={m}: {got} vs exact {want}")
        return fails


def _agree(a, b) -> bool:
    with mp.workprec(CHECK_PRECISION):
        return abs(a - b) <= AGREE_REL * abs(b)


WORKLOADS = {w.name: w for w in (McCore, McTn, ThresholdReports, ExactSums)}
