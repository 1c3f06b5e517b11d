import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from conftest import core_record, fifo_core, hypergraph, naive_core
from gf2rank import peeling
from gf2rank.errors import WORK_BUDGET, DimensionMismatch, InvalidParam, TooLarge
from gf2rank.gf2 import GF2Matrix, RankState, enumerate_null_vectors, row_from_cols
from gf2rank.peeling import (
    CoreStats,
    Hypergraph,
    check_E,
    corank,
    eliminate_core,
    peel_2core,
)
from gf2rank.sampling import SampleConfig, sample_matrix
from gf2rank.thresholds import alpha_bar, alpha_sharp, alpha_star, core_theory, discontinuities
from gf2rank.verification import FIG1_RHO, FIG2_RHO
from gf2rank.weights import WeightDist, parse_rho


def random_hypergraph(rng, n_max=12, m_max=14):
    n = int(rng.integers(1, n_max))
    m = int(rng.integers(0, m_max))
    edges = []
    for _ in range(m):
        k = int(rng.integers(1, min(4, n) + 1))
        edges.append(sorted(rng.choice(n, size=k, replace=False).tolist()))
    return n, edges


def test_single_edge_peels_away():
    stats = peel_2core(hypergraph(3, [(0, 1, 2)]))
    assert stats.core_rows == 0
    assert stats.occupied_cols == 0
    assert stats.core_edge_ids == ()


def test_triangle_survives():
    stats = peel_2core(hypergraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert stats.core_rows == 3
    assert stats.occupied_cols == 3
    assert stats.incidences == 6


def test_duplicate_edges_survive():
    stats = peel_2core(hypergraph(3, [(0, 1, 2), (0, 1, 2)]))
    assert stats.core_rows == 2
    assert stats.occupied_cols == 3
    assert stats.incidences == 6
    assert stats.rows_by_weight == {3: 2}
    assert stats.cols_by_degree == {2: 3}


def test_core_degrees_at_least_two(rng):
    for _ in range(100):
        n, edges = random_hypergraph(rng)
        stats = peel_2core(hypergraph(n, edges))
        assert all(d >= 2 for d in stats.cols_by_degree)
        assert stats.incidences == sum(k * v for k, v in stats.rows_by_weight.items())
        assert stats.incidences == sum(d * v for d, v in stats.cols_by_degree.items())


def test_check_E():
    empty = peel_2core(hypergraph(3, [(0, 1, 2)]))
    assert not check_E(empty, 10, 0.1)
    square = CoreStats((0, 1, 2), {2: 3}, {2: 3})
    assert not check_E(square, 10, 0.1)  # needs strictly more rows
    more = CoreStats((0, 1, 2, 3), {2: 4}, {2: 1, 3: 2})
    assert check_E(more, 10, 0.1)
    assert not check_E(more, 100, 0.1)  # 4 < eps * n
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParam):
            check_E(more, 10, eps)


def test_hypergraph_edge_out_of_range():
    # the matrix refuses the row, before any Hypergraph is built
    for edge in ((0, 3), (-1, 2)):
        with pytest.raises(DimensionMismatch):
            hypergraph(3, [(0, 1), edge])


def peel_record(n, edges):
    """(CoreStats, terminal degrees) of the array peel."""
    h = hypergraph(n, edges)
    return peel_2core(h), h.vertex_degree.tolist()


def assert_same_core(got, want):
    """Equal stats and degrees, and the histogram keys in the same order."""
    (stats, degree), (want_stats, want_degree) = got, want
    assert stats == want_stats
    assert list(stats.rows_by_weight.items()) == list(want_stats.rows_by_weight.items())
    assert list(stats.cols_by_degree.items()) == list(want_stats.cols_by_degree.items())
    assert degree == want_degree


def test_peel_matches_naive_and_order_invariant(rng):
    # naive_core and fifo_core delete one edge at a time in two other orders,
    # so equal cores show order invariance
    for _ in range(300):
        n, edges = random_hypergraph(rng)
        got = peel_record(n, edges)
        assert_same_core(got, core_record(n, edges, naive_core(n, edges)[0]))
        assert_same_core(got, fifo_core(n, edges))


FIG1_JUMP = 0.938536  # alpha of FIG1's jump of g_star


def test_peel_matches_fifo_over_laws_and_sizes():
    laws = ("r=2", "r=3", FIG1_RHO, FIG2_RHO, "0.9325:3,0.0675:44", "0.2:1,0.8:3")
    checked = 0
    for spec in laws:
        dist = parse_rho(spec)
        a_sharp = alpha_sharp(dist)[0]
        alphas = sorted({a for a in (0.3, a_sharp - 0.03, a_sharp + 0.03, FIG1_JUMP - 0.01,
                                     FIG1_JUMP + 0.01, 1.2) if a > 0})
        for model in ("exact", "binomial"):
            for n in (1, 2, 7, 40, 300, 3000):
                if n == 1 and model == "binomial" and spec == "r=2":
                    continue  # no nonempty row exists; SampleConfig refuses it
                for alpha in alphas:
                    mat = sample_matrix(SampleConfig(n, round(alpha * n), dist, model, seed=checked))
                    h = Hypergraph.from_matrix(mat)
                    stats = peel_2core(h)
                    assert_same_core((stats, h.vertex_degree.tolist()), fifo_core(n, mat.cols)), (
                        spec, model, n, alpha)
                    checked += 1
    assert checked > 350


def lollipop(tail, cycle):
    """A weight-2 path of `tail` edges ending on a cycle of `cycle` edges."""
    path = [(i, i + 1) for i in range(tail)]
    ring = [(tail + i, tail + (i + 1) % cycle) for i in range(cycle)]
    return tail + cycle, path + [tuple(sorted(e)) for e in ring]


def test_peel_hand_cases():
    n_path = 2001
    cases = {
        "long-path": (n_path, [(i, i + 1) for i in range(n_path - 1)]),  # about 1000 rounds
        "path-into-cycle": lollipop(600, 5),
        "cycle": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "zero-rows": (3, [(), (0, 1), (), (0, 1), (1, 2)]),
        "duplicate-edges": (4, [(0, 1, 2), (0, 1, 2), (2, 3)]),
        "no-rows": (4, []),
        "n=1": (1, [(0,), (), (0,)]),
        "n=1-peels": (1, [(0,), ()]),
    }
    want = {
        "long-path": CoreStats((), {}, {}),
        "path-into-cycle": CoreStats(tuple(range(600, 605)), {2: 5}, {2: 5}),
        "cycle": CoreStats((0, 1, 2, 3, 4), {2: 5}, {2: 5}),
        "zero-rows": CoreStats((0, 1, 2, 3), {0: 2, 2: 2}, {2: 2}),
        "duplicate-edges": CoreStats((0, 1), {3: 2}, {2: 3}),
        "no-rows": CoreStats((), {}, {}),
        "n=1": CoreStats((0, 1, 2), {0: 1, 1: 2}, {2: 1}),
        "n=1-peels": CoreStats((1,), {0: 1}, {}),
    }
    for name, (n, edges) in cases.items():
        got = peel_record(n, edges)
        assert got[0] == want[name], name
        assert_same_core(got, fifo_core(n, edges))
        if len(edges) <= 20:
            assert_same_core(got, core_record(n, edges, naive_core(n, edges)[0]))


def test_aspect_ratio_monotone_under_peeling(rng):
    checked = 0
    for _ in range(300):
        n, edges = random_hypergraph(rng, n_max=10, m_max=16)
        if not edges:
            continue
        occ0 = set(v for e in edges for v in e)
        if not occ0 or len(edges) / len(occ0) < 1.0:
            continue
        _, trajectory = naive_core(n, edges)
        ratios = [len(edges) / len(occ0)] + trajectory
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        checked += 1
    assert checked > 20


def test_null_vectors_live_on_core(rng):
    for _ in range(200):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 13))
        cfg = SampleConfig(n=n, m=m, dist=WeightDist.fixed(min(3, n)),
                           seed=int(rng.integers(0, 2**32)))
        mat = sample_matrix(cfg)
        stats = peel_2core(Hypergraph.from_matrix(mat))
        core = set(stats.core_edge_ids)
        vecs, _ = enumerate_null_vectors(mat)
        for v in vecs:
            rows = {i for i in range(m) if (v >> i) & 1}
            assert rows <= core


def test_empty_core_means_no_hypercycle(rng):
    for _ in range(150):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(1, 10))
        cfg = SampleConfig(n=n, m=m, dist=WeightDist.fixed(3), seed=int(rng.integers(0, 2**32)))
        mat = sample_matrix(cfg)
        stats = peel_2core(Hypergraph.from_matrix(mat))
        if stats.core_rows == 0:
            vecs, _ = enumerate_null_vectors(mat)
            assert vecs == [0]


def test_core_degree_histogram_poisson():
    dist = WeightDist.fixed(3)
    n, alpha = 20_000, 0.95
    mat = sample_matrix(SampleConfig(n=n, m=round(alpha * n), dist=dist, seed=31))
    stats = peel_2core(Hypergraph.from_matrix(mat))
    th = core_theory(dist, alpha)
    pmf = th.col_degree_pmf(d_max=12)
    counts = dict(stats.cols_by_degree)
    counts[0] = n - stats.occupied_cols
    cap = 9
    obs, exp = [], []
    for d in [0] + list(range(2, cap)):
        obs.append(counts.get(d, 0))
        exp.append(pmf[d] * n)
    obs.append(sum(v for d, v in counts.items() if d >= cap))
    exp.append(max(n - sum(exp), 1e-9))
    _, p = scipy.stats.chisquare(obs, f_exp=np.array(exp) * sum(obs) / sum(exp))
    assert p > 1e-3


def full_corank(mat):
    """Oracle: RankState over every row of the matrix, in sampler order."""
    state = RankState(mat.n_cols)
    for r in mat.rows:
        state.absorb(r)
    return state.corank


def test_corank_matches_full_rankstate():
    # alpha on both sides of alpha_sharp, of each jump of g_star (the first
    # is at alpha_sharp) and of alpha_bar, and well above 1, where the rank
    # of the core is full
    checked = 0
    for spec in ("r=1", "r=2", "r=3", FIG1_RHO, FIG2_RHO, "0.9325:3,0.0675:44", "0.5:1,0.5:3"):
        dist = parse_rho(spec)
        a_star = alpha_star(dist)
        alphas = [0.3, 1.0, 1.2, 1.5]
        if a_star > 0.02:
            alphas.append(a_star - 0.02)
        for jump in [alpha_sharp(dist)[0]] + [a for a, _, _ in discontinuities(dist)[1:]]:
            alphas += [jump - 0.005, jump + 0.005]
        if dist.min_weight >= 3:
            alphas += [alpha_bar(dist) - 0.005, alpha_bar(dist) + 0.02]
        for model in ("exact", "binomial"):
            for n in (1, 17, 150, 600):
                if n == 1 and model == "binomial" and spec == "r=2":
                    continue  # no nonempty row exists; SampleConfig refuses it
                for alpha in sorted(a for a in set(alphas) if a > 0):
                    for seed in (1, 2):
                        mat = sample_matrix(SampleConfig(n, round(alpha * n), dist, model, seed))
                        assert corank(mat) == full_corank(mat), (spec, model, n, alpha, seed)
                        checked += 1
    assert checked > 900


def test_corank_edge_cases():
    cases = {
        "empty": (GF2Matrix(5), 0),
        "duplicates": (GF2Matrix(6, [0b000111] * 3 + [0b011000] * 2 + [0b100001]), 3),
        "weight-1": (GF2Matrix(4, [0b0001, 0b0001, 0b0010, 0b0100, 0b0100, 0b0100]), 3),
        "peels-away": (GF2Matrix(5, [0b00011, 0b00110, 0b01100, 0b11000]), 0),
        "core-of-a-cycle": (GF2Matrix(5, [0b00011, 0b00110, 0b00101, 0b11000]), 1),
    }
    for name, (mat, want) in cases.items():
        assert corank(mat) == want == full_corank(mat), name
    assert peel_2core(Hypergraph.from_matrix(cases["peels-away"][0])).core_rows == 0


def test_eliminate_core_matches_peel_and_full_rankstate(rng):
    # the kernel's stats against peel_2core, its corank against a RankState
    # fed every edge of the hypergraph
    for _ in range(400):
        n, edges = random_hypergraph(rng)
        state = RankState(n)
        for e in edges:
            state.absorb(row_from_cols(e))
        stats, sigma, _ = eliminate_core(hypergraph(n, edges))
        assert stats == peel_2core(hypergraph(n, edges))
        assert sigma == state.corank


FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def test_eliminate_core_hand_cores():
    cases = {
        # every column has degree 3: the first set-aside round sets aside 2
        # rows, a later one 1 row at a column of live degree 2; the rank is 4
        "fano": (7, FANO_LINES, 3, 3),
        # copies of one row: every constraint vanishes, so corank = |S|
        "copies": (5, [(0, 1, 2)] * 4 + [(3, 4)] * 3, 5, 5),
        # the zero rows of the core stay live to the end and are set aside last
        "zero-rows": (3, [(), (0, 1), (), (0, 1), (1, 2), (0, 2)], 4, 4),
        "only-zero-rows": (2, [(), ()], 2, 2),
        # all ten triples of five columns: 7 rows set aside, and two of
        # the constraints on them are independent
        "triples-of-5": (5, list(itertools.combinations(range(5), 3)), 5, 7),
    }
    for name, (n, edges, want, want_aside) in cases.items():
        stats, sigma, set_aside = eliminate_core(hypergraph(n, edges))
        assert sigma == want == full_corank(GF2Matrix.from_cols(n, edges)), name
        assert stats.core_rows == len(edges), name
        assert set_aside == want_aside, name


def test_core_elimination_budget_counts_the_set_aside_rows(monkeypatch):
    # 100 copies of a one-column row: 100 core rows x 1 occupied column pass
    # the check after the peel, 100 x 99 set-aside rows are refused before
    # the masks are allocated
    monkeypatch.setitem(WORK_BUDGET, "core elimination", (WORK_BUDGET["core elimination"][0], 1000))
    mat = GF2Matrix.from_cols(1, [(0,)] * 100)
    with pytest.raises(TooLarge, match="= 9900 exceeds the budget 1000"):
        corank(mat)
    assert corank(GF2Matrix.from_cols(1, [(0,)] * 10)) == 9


def dense_rows(rng, m, n):
    return [tuple((rng.random(n) < 0.5).nonzero()[0].tolist()) for _ in range(m)]


@pytest.mark.parametrize("name", ["heavy-copies", "dense-2n"])
def test_eliminate_core_memory_stays_near_its_inputs(name):
    # Nearly every core row is set aside in the first round here, so |S| is
    # close to the core rows and the free columns are nearly all columns,
    # each of core degree in the hundreds.  The kernel's peak allocation
    # stays within 8 words per core incidence, two mask tables (core rows x
    # |S| bits) and 4 words per column; gathering the masks of every
    # incidence on the free columns at once took 1.5-3.8 times that.
    rng = np.random.default_rng(7)
    n, edges = {"heavy-copies": (40, [tuple(range(40))] * 2000),
                "dense-2n": (300, dense_rows(rng, 600, 300))}[name]
    h = hypergraph(n, edges)
    tracemalloc.start()
    try:
        stats, sigma, set_aside = eliminate_core(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sigma == full_corank(GF2Matrix.from_cols(n, edges))
    assert peak <= 64 * stats.incidences + 2 * stats.core_rows * set_aside // 8 + 32 * n + 65536


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 128, 200])
def test_packed_rank_matches_rankstate(n_bits):
    rng = np.random.default_rng(n_bits)
    for n_rows in (0, 1, n_bits // 2, n_bits, n_bits + 7):
        for density in (0.02, 0.5):
            bits = rng.random((n_rows, n_bits)) < density
            if n_rows > 2:
                bits[-1] = bits[0] ^ bits[1]  # one dependent row at least
            words = -(-n_bits // 64)
            packed = np.packbits(bits, axis=1, bitorder="little")
            packed = np.pad(packed, ((0, 0), (0, 8 * words - packed.shape[1]))).view("<u8")
            state = RankState(n_bits)
            for row in bits:
                state.absorb(row_from_cols(row.nonzero()[0].tolist()))
            assert peeling._packed_rank(packed, n_bits) == n_rows - state.corank
