import numpy as np
import pytest
import scipy.stats

from gf2rank.errors import InvalidParam
from gf2rank.gf2 import row_cols
from gf2rank.sampling import (
    SampleConfig,
    derive_stream_seed,
    make_rng,
    run_Tn,
    sample_matrix,
    sample_row,
)
from gf2rank.weights import WeightDist


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
    assert sum(mat.row_weights) == 300


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
