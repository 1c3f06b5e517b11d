import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.stats

from gf2rank import sampling
from gf2rank.errors import InvalidParam
from gf2rank.gf2 import GF2Matrix, RankState, row_cols, row_from_cols
from gf2rank.peeling import Hypergraph
from gf2rank.sampling import (
    MODELS,
    SampleConfig,
    derive_stream_seed,
    make_rng,
    run_Tn,
    sample_matrix,
    sample_row,
    sample_rows,
)
from gf2rank.verification import FIG1_RHO, FIG2_RHO
from gf2rank.weights import WeightDist, parse_rho


def cfg3(n, m=0, seed=0, model="exact"):
    return SampleConfig(n=n, m=m, dist=WeightDist.fixed(3), model=model, seed=seed)


def test_sample_row_saturated():
    rng = make_rng(1)
    assert all(sample_row(cfg3(3), rng) == 0b111 for _ in range(20))


def test_sample_row_column_uniformity():
    cfg = SampleConfig(n=5, m=0, dist=WeightDist.fixed(1), seed=0)
    rng = make_rng(5)
    counts = [0] * 5
    draws = 100_000
    for _ in range(draws):
        counts[row_cols(sample_row(cfg, rng))[0]] += 1
    for c in counts:
        assert abs(c / draws - 0.2) <= 0.01


def test_sample_row_weight_is_exact():
    rng = make_rng(9)
    cfg = cfg3(100)
    assert all(sample_row(cfg, rng).bit_count() == 3 for _ in range(500))


def test_column_incidence_chi_square():
    # a weight-k row covers each column at rate k/n
    n, rows = 50, 100_000
    rng = make_rng(123)
    cfg = cfg3(n)
    counts = np.zeros(n)
    for _ in range(rows):
        for c in row_cols(sample_row(cfg, rng)):
            counts[c] += 1
    _, p = scipy.stats.chisquare(counts)
    assert p > 1e-3


def test_binomial_model_rows_nonzero():
    cfg = SampleConfig(n=2, m=0, dist=WeightDist.fixed(2), model="binomial", seed=4)
    rng = make_rng(4)
    for _ in range(200):
        row = sample_row(cfg, rng)
        assert row == 0b11  # same-urn throws are redrawn


def test_sample_matrix_empty():
    mat = sample_matrix(cfg3(4, m=0))
    assert mat.m == 0 and mat.n_cols == 4


def test_sample_matrix_deterministic():
    a = sample_matrix(cfg3(10, m=10, seed=77))
    b = sample_matrix(cfg3(10, m=10, seed=77))
    assert a.rows == b.rows
    c = sample_matrix(cfg3(10, m=10, seed=78))
    assert c.rows != a.rows


def test_sample_matrix_total_units():
    mat = sample_matrix(cfg3(200, m=100, seed=5))
    assert sum(r.bit_count() for r in mat.rows) == 300


def test_config_validation():
    with pytest.raises(InvalidParam):
        SampleConfig(n=0, m=1, dist=WeightDist.fixed(3))
    with pytest.raises(InvalidParam):
        SampleConfig(n=5, m=-1, dist=WeightDist.fixed(3))
    with pytest.raises(InvalidParam):
        SampleConfig(n=5, m=1, dist=WeightDist.fixed(3), model="other")


def test_binomial_needs_a_nonempty_row():
    # at n=1 the binomial row is nonempty only for an odd weight; the sampler
    # would redraw forever, so the config is refused before any draw
    for dist in (WeightDist.fixed(2), WeightDist(((2, 0.5), (4, 0.5)))):
        with pytest.raises(InvalidParam):
            SampleConfig(n=1, m=2, dist=dist, model="binomial")
    SampleConfig(n=1, m=2, dist=WeightDist(((2, 0.5), (3, 0.5))), model="binomial")
    SampleConfig(n=2, m=2, dist=WeightDist.fixed(2), model="binomial")
    SampleConfig(n=1, m=2, dist=WeightDist.fixed(2), model="exact")


def test_run_Tn_single_column():
    # any weight law truncates to weight 1 at n=1: dependency on the 2nd row
    for dist in (WeightDist.fixed(1), WeightDist.fixed(3)):
        cfg = SampleConfig(n=1, m=0, dist=dist, seed=11)
        assert run_Tn(cfg) == 2


def test_run_Tn_bounded_by_n_plus_one():
    for seed in range(20):
        t = run_Tn(SampleConfig(n=12, m=0, dist=WeightDist.fixed(3), seed=seed))
        assert t <= 13


def test_run_Tn_concentrates_near_alpha_bar():
    ts = [run_Tn(cfg3(800, seed=derive_stream_seed(3, t))) for t in range(30)]
    mean = sum(ts) / len(ts) / 800
    assert 0.85 <= mean <= 0.97


def test_stream_seeds_distinct():
    seen = {derive_stream_seed(s, t) for s in range(4) for t in range(100)}
    assert len(seen) == 400


def test_stream_seed_reproducible():
    assert derive_stream_seed(42, 7) == derive_stream_seed(42, 7)


# --- the block route against its oracle, successive sample_row calls ---------

GATE_DISTS = {
    "w1": WeightDist.fixed(1),
    "w2": WeightDist.fixed(2),
    "w3": WeightDist.fixed(3),
    "w7": WeightDist.fixed(7),
    "fig1": parse_rho(FIG1_RHO),
    "fig2": parse_rho(FIG2_RHO),
    "mix40": WeightDist(((2, 0.3), (3, 0.6), (40, 0.1))),
}


def _configs(dist, model, ns, seeds, m=0):
    # every valid config; the binomial model refuses n = 1 with only even weights
    for n in ns:
        for seed in seeds:
            try:
                yield SampleConfig(n, m, dist, model=model, seed=seed)
            except InvalidParam:
                pass


def _next_draws(rng):
    # random() takes a fresh word, integers() a half-word: both orders
    return (rng.random(), int(rng.integers(0, 7)), rng.integers(0, 1000, size=3).tolist(),
            rng.random(), int(rng.integers(0, 2**20)))


def _assert_block_route(cfg, blocks, buffered=False):
    """sample_rows over successive blocks gives the rows of successive
    sample_row calls and leaves the generator in the state they leave it,
    buffered half-word included.  With buffered, one integers() draw first
    makes the first block start from a buffered half-word."""
    scalar, block = make_rng(cfg.seed), make_rng(cfg.seed)
    if buffered:
        assert scalar.integers(0, 5) == block.integers(0, 5)
        assert block.bit_generator.state["has_uint32"] == 1
    for size in blocks:
        want = [sample_row(cfg, scalar) for _ in range(size)]
        got = sample_rows(cfg, block, size)
        if got != want:
            i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
            pytest.fail(f"numpy {np.__version__}, {cfg}, block of {size}: first differing row {i}: "
                        f"{got[i] if i < len(got) else None} != {want[i] if i < len(want) else None}")
    assert block.bit_generator.state == scalar.bit_generator.state, f"numpy {np.__version__}, {cfg}"
    got, want = _next_draws(block), _next_draws(scalar)
    assert got == want, f"numpy {np.__version__}, {cfg}: later draws {got} != {want}"


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", list(GATE_DISTS))
def test_sample_rows_equals_successive_sample_row(name, model):
    # n = 1, 2, 3 and 5 truncate weights above n in the exact model
    seeds = (derive_stream_seed(41, 0), derive_stream_seed(41, 1))
    for cfg in _configs(GATE_DISTS[name], model, (1, 2, 3, 5, 40, 300, 3000), seeds):
        for buffered in (False, True):
            _assert_block_route(cfg, (1, 6, 1, 17, 32), buffered)
    if name in ("w3", "fig1"):  # one full matrix block at large n
        for cfg in _configs(GATE_DISTS[name], model, (4100, 10_000), seeds):
            for buffered in (False, True):
                _assert_block_route(cfg, (1024,), buffered)


# (model, weight, seed) at n = 4100, where 2^32 mod 4100 = 4096, so a draw from
# [0, 4100) is rejected about once in a million.  Found by searching seeds for
# a rejection within the first 8 rows; in the 2nd and 4th the redraw takes the
# buffered high half-word.
REJECTION_CASES = (("exact", 1, 73096), ("exact", 1, 257304),
                   ("binomial", 3, 41833), ("binomial", 3, 237019))


def _lemire_rejected(rng, h):
    # whether the 32-bit word of rng's next integers(0, h) draw falls in
    # Lemire's rejection zone, low word below 2^32 mod h
    state = rng.bit_generator.state
    if state["has_uint32"]:
        x = state["uinteger"]
    else:
        peek = np.random.PCG64()
        peek.state = state
        x = int(peek.random_raw()) & 0xFFFFFFFF
    return (x * h) & 0xFFFFFFFF < (1 << 32) % h


class _RejectionProbe:
    """Generator stand-in for sample_row: makes each bounded draw one at a
    time, as numpy does, and notes whether any fell in the rejection zone."""

    def __init__(self, rng):
        self.rng, self.rejected = rng, False

    def random(self):
        return self.rng.random()

    def integers(self, low, high, size=None):
        draws = []
        for _ in range(1 if size is None else size):
            self.rejected |= _lemire_rejected(self.rng, high - low)
            draws.append(self.rng.integers(low, high))
        return draws[0] if size is None else np.array(draws)


def _spy_fallback(monkeypatch):
    # each row sample_rows hands to sample_row notes whether it was rejected
    fallbacks = []

    def spy(cfg, rng):
        probe = _RejectionProbe(rng)
        row = sample_row(cfg, probe)
        fallbacks.append(probe.rejected)
        return row

    monkeypatch.setattr(sampling, "sample_row", spy)
    return fallbacks


def test_sample_rows_lemire_rejection(monkeypatch):
    rejections = _spy_fallback(monkeypatch)
    for model, r, seed in REJECTION_CASES:
        rejections.clear()
        _assert_block_route(SampleConfig(4100, 0, WeightDist.fixed(r), model=model, seed=seed), (8,))
        assert any(rejections), (model, r, seed)


# attempts with no rejection that the block decoder once left to sample_row:
# an empty binomial throw (two balls in one urn, 1 in 3 at n = 3) and a weight
# k >= n, whose first Floyd step has h = 1 and draws nothing.  Both are
# decoded in the array path now, so sample_row never sees them.
FALLBACK_CASES = {
    "binomial-empty-throw": SampleConfig(3, 0, WeightDist.fixed(2), model="binomial", seed=5),
    "exact-k-ge-n": SampleConfig(3, 0, WeightDist.fixed(3), seed=5),
    "exact-mixed-k-ge-n": SampleConfig(5, 0, WeightDist(((2, 0.5), (7, 0.5))), seed=5),
}


@pytest.mark.parametrize("name", list(FALLBACK_CASES))
def test_sample_rows_fallback_rows(monkeypatch, name):
    fallbacks = _spy_fallback(monkeypatch)
    for buffered in (False, True):
        fallbacks.clear()
        _assert_block_route(FALLBACK_CASES[name], (8, 17), buffered)
        assert not fallbacks, name


TINY_N_DISTS = {f"w{k}": WeightDist.fixed(k) for k in range(1, 10)}
TINY_N_DISTS.update({spec: parse_rho(spec) for spec in ("0.2:1,0.5:2,0.3:5", "0.5:2,0.5:7",
                                                        "0.9:2,0.1:4")})


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", list(TINY_N_DISTS))
def test_sample_rows_tiny_n(monkeypatch, name, model):
    # n at or below the weights: weights k >= n (h = 1 first), n = 1 (every
    # binomial h = 1) and empty binomial throws, from both buffer states;
    # only a Lemire rejection may reach sample_row
    fallbacks = _spy_fallback(monkeypatch)
    seeds = [derive_stream_seed(14, t) for t in range(3)]
    for cfg in _configs(TINY_N_DISTS[name], model, range(1, 10), seeds):
        for buffered in (False, True):
            _assert_block_route(cfg, (1, 7, 300, 33), buffered)
    assert all(fallbacks), (name, model)


def test_sample_rows_other_bit_generator_takes_scalar_route():
    cfg = SampleConfig(50, 0, WeightDist.fixed(3), seed=0)
    a = np.random.Generator(np.random.Philox(3))
    b = np.random.Generator(np.random.Philox(3))
    assert sample_rows(cfg, a, 20) == [sample_row(cfg, b) for _ in range(20)]
    assert _next_draws(a) == _next_draws(b)


def test_sample_matrix_rows_equal_scalar_rows():
    # more rows than one block, so the matrix spans a block boundary
    for model in MODELS:
        cfg = SampleConfig(n=50, m=2 * sampling._BLOCK + 5, dist=GATE_DISTS["fig1"],
                           model=model, seed=9)
        rng = make_rng(cfg.seed)
        assert sample_matrix(cfg).rows == [sample_row(cfg, rng) for _ in range(cfg.m)]


def _assert_cols_route(cfg):
    """sample_matrix's column tuples are the columns of successive sample_row
    bitmasks, and the hypergraph reads the matrix's arrays in place and
    gives its rows as edges."""
    rng = make_rng(cfg.seed)
    want = [tuple(row_cols(sample_row(cfg, rng))) for _ in range(cfg.m)]
    mat = sample_matrix(cfg)
    assert mat.cols == want, f"numpy {np.__version__}, {cfg}"
    assert mat.col_index.dtype == mat.row_start.dtype == np.intp
    h = Hypergraph.from_matrix(mat)
    assert h.edges == [tuple(row_cols(r)) for r in mat.rows]
    assert h.edges is h.edges  # derived on the first read, then kept
    assert np.shares_memory(h._cols, mat.col_index) and np.shares_memory(h._row_start, mat.row_start)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", list(GATE_DISTS))
def test_sample_matrix_cols_equal_scalar_rows(name, model):
    # n = 1..9 truncate weights (exact) or repeat urns (binomial); one block
    # boundary is crossed
    seeds = (derive_stream_seed(15, 0), derive_stream_seed(15, 1))
    for cfg in _configs(GATE_DISTS[name], model, [*range(1, 10), 3000], seeds, sampling._BLOCK + 5):
        _assert_cols_route(cfg)


def test_sample_matrix_cols_fallback_and_rejection_cases(monkeypatch):
    for cfg in FALLBACK_CASES.values():  # an empty binomial throw among them
        _assert_cols_route(dataclasses.replace(cfg, m=300))
    rejections = _spy_fallback(monkeypatch)
    for model, r, seed in REJECTION_CASES:
        rejections.clear()
        _assert_cols_route(SampleConfig(4100, 20, WeightDist.fixed(r), model=model, seed=seed))
        assert any(rejections), (model, r, seed)


def test_csr_keeps_odd_urns_once():
    # sorted urns of four balls: an odd count keeps the urn, an even count
    # drops it, and a throw with every count even gives no row; the rows of
    # two weights interleave, and each lands at its attempt's offset
    cfg = SampleConfig(8, 0, WeightDist(((3, 0.5), (4, 0.5))), model="binomial")
    four = np.array([[1, 1, 1, 4], [2, 2, 5, 5], [0, 3, 3, 7], [6, 6, 6, 6], [0, 1, 2, 3]],
                    dtype=np.uint64)
    three = np.array([[5, 5, 5], [2, 3, 3]], dtype=np.uint64)
    parts = [(np.array([0, 2, 3, 5, 6]), four), (np.array([1, 4]), three)]
    flat, size = sampling._csr(cfg, 7, parts)
    bounds = np.concatenate(([0], size.cumsum())).tolist()
    got = [tuple(flat[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    want = [(1, 4), (5,), (0, 7), (2,), (0, 1, 2, 3)]
    assert got == want
    # the masks run_Tn absorbs come out of the same arrays
    assert GF2Matrix.from_csr(8, flat, bounds).rows == [row_from_cols(row) for row in want]


# sha256 of sample_matrix(cfg).rows at seed 1309, each row as (n + 7) // 8
# little-endian bytes, recorded with the scalar word-by-word decoder that the
# block decoder replaced: the seed -> matrix bits map must not drift
STREAM_DIGESTS = {
    ("w3", "exact", 3000, 2500): "83816e0231eb6d09513b54f317b3db658f8ce47dd7ce558f01596c6bdd8ad821",
    ("w3", "binomial", 3000, 2500): "eff2180d41f7cb68c5a22a945cce994d374bc775154bf3327ba245717efa71d2",
    ("fig1", "exact", 3000, 2500): "3be550ed6a430c08deb450446dc754f830c6afd7d99f628dd12421ccba25989a",
    ("fig1", "binomial", 3000, 2500): "1c7c67e509756cf0f2ca8b96e86ceb97a2a8b16e45466dd559e20410dcbac83b",
    ("fig2", "exact", 3000, 2500): "30ba7b1b5871ea10bcd9ecdb70c1e3c6450fa3c97f0c30d16841efeb7b95712e",
    ("fig2", "binomial", 3000, 2500): "1a531587238c06b412d33a0142170d76617c9fc28aac9d7ba3cfc74dbb21911c",
    ("mix40", "exact", 3000, 2500): "195b6d54efdfd1ca36eeba3a741b35d9166fca18a4ac6908bdfd8474c536bf71",
    ("mix40", "binomial", 3000, 2500): "57e81c0d23f67a5c17020e42126ff76b9b055248736a5ba98e0ba6a2a5ac4b72",
    ("w3", "exact", 10_000, 9500): "068f492bce94aa2e039864579bc801e729c0bea632d70053ddd01e7bfc82a777",
}


@pytest.mark.parametrize("key", list(STREAM_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_sample_matrix_stream_pinned(key):
    name, model, n, m = key
    digest = hashlib.sha256()
    for row in sample_matrix(SampleConfig(n, m, GATE_DISTS[name], model=model, seed=1309)).rows:
        digest.update(row.to_bytes((n + 7) // 8, "little"))
    assert digest.hexdigest() == STREAM_DIGESTS[key], f"numpy {np.__version__}"


def _replay_Tn(cfg):
    rng = make_rng(cfg.seed)
    state = RankState(cfg.n)
    m = 0
    while True:
        m += 1
        if state.absorb(sample_row(cfg, rng)):
            return m


def test_run_Tn_equals_scalar_replay():
    # every GATE_DISTS law in both row models
    seeds = [derive_stream_seed(8, t) for t in range(5)]
    cases = 0
    for name, dist in GATE_DISTS.items():
        for model in MODELS:
            for cfg in _configs(dist, model, (1, 2, 5, 30, 300, 1000), seeds):
                assert run_Tn(cfg) == _replay_Tn(cfg), f"numpy {np.__version__}, {cfg}"
                cases += 1
    assert cases >= 400


def test_run_Tn_equals_scalar_replay_large_n():
    # where fill-in is heavy: n = 3000 in both row models, 10^4 once
    cfgs = [SampleConfig(3000, 0, GATE_DISTS[name], model=model, seed=derive_stream_seed(9, t))
            for name in ("w3", "fig1") for model in MODELS for t in range(3)]
    cfgs.append(SampleConfig(10_000, 0, GATE_DISTS["w3"], seed=derive_stream_seed(9, 3)))
    for cfg in cfgs:
        assert run_Tn(cfg) == _replay_Tn(cfg), f"numpy {np.__version__}, {cfg}"


@pytest.mark.parametrize("model", MODELS)
def test_mean_two_to_corank_matches_expected_null_count(model):
    # E[2^corank] of the sampler's matrices against the closed form of the
    # same row model: at n = 3, m = 3, weight 2 the binomial value is 20/9,
    # while counting empty rows would give 3.03
    from gf2rank.exact import expected_null_count
    from gf2rank.peeling import corank

    dist, n, m, trials = WeightDist.fixed(2), 3, 3, 4000
    want = float(expected_null_count(n, m, dist, model=model, exact=True)[0])
    counts = [2 ** corank(sample_matrix(SampleConfig(n, m, dist, model, seed)))
              for seed in range(trials)]
    mean = np.mean(counts)
    se = np.std(counts) / np.sqrt(trials)
    assert abs(mean - want) <= 4 * se, (mean, want, se)
