import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gf2rank.errors import InvalidDistribution, ParseError
from gf2rank.sampling import SampleConfig, sample_row
from gf2rank.weights import WeightDist, parse_rho

FIG1 = WeightDist(((3, 0.9), (24, 0.1)))


def row_weights(dist, n, model, rng, draws):
    """Weights of ``draws`` successive sample_row rows."""
    cfg = SampleConfig(n=n, m=0, dist=dist, model=model)
    return [sample_row(cfg, rng).bit_count() for _ in range(draws)]


def test_pgf_point_mass():
    d = WeightDist.fixed(3)
    assert d.pgf(1.0) == 1.0
    assert d.pgf(0.5, 1) == 0.75
    assert d.pgf(0.5) == 0.125
    assert d.pgf(0.5, 2) == 3.0
    assert d.pgf(0.5, 3) == 6.0


def test_pgf_exact_mode_is_rational():
    d = WeightDist(((2, Fraction(1, 3)), (5, Fraction(2, 3))))
    v = d.pgf(Fraction(1, 2))
    assert v == Fraction(1, 3) / 4 + Fraction(2, 3) / 32
    assert d.pgf(Fraction(1)) == 1  # exactly


def test_pgf_endpoints():
    assert FIG1.pgf(0.0) == 0.0
    assert abs(FIG1.pgf(1.0) - 1.0) <= 1e-12


def test_pgf_negative_argument_bound_fig1():
    assert abs(FIG1.pgf(-0.3)) <= FIG1.pgf(0.3)


def test_pgf_negative_argument_bound_grid():
    for i in range(1, 1001):
        s = i / 1000
        assert abs(FIG1.pgf(-s)) <= FIG1.pgf(s) + 1e-15


@settings(max_examples=100, deadline=None)
@given(
    ks=st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
    raw=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    s=st.floats(0.0, 1.0),
)
def test_pgf_negative_argument_bound_property(ks, raw, s):
    ps = raw[: len(ks)]
    total = sum(ps)
    d = WeightDist(tuple((k, p / total) for k, p in zip(sorted(ks), ps)))
    assert abs(d.pgf(-s)) <= d.pgf(s) + 1e-12


def test_parse_point_mass():
    d = parse_rho("r=3")
    assert d.atoms == ((3, 1),)
    assert d.min_weight == 3


def test_parse_mixture():
    d = parse_rho("0.9:3,0.1:24")
    assert [k for k, _ in d.atoms] == [3, 24]
    assert abs(dict(d.atoms)[3] - 0.9) < 1e-12
    assert abs(sum(p for _, p in d.atoms) - 1.0) < 1e-12


def test_parse_bad_sum():
    with pytest.raises(InvalidDistribution):
        parse_rho("0.5:3,0.6:4")


def test_parse_malformed():
    for bad in ("", "x", "0.5;3", "0.9:3,0.1:", "r=zero"):
        with pytest.raises((ParseError, InvalidDistribution)):
            parse_rho(bad)


def test_parse_rejects_bad_atoms():
    with pytest.raises(InvalidDistribution):
        parse_rho("0.5:0,0.5:3")
    with pytest.raises(InvalidDistribution):
        parse_rho("-0.1:3,1.1:4")


def test_dist_validation():
    with pytest.raises(InvalidDistribution):
        WeightDist(((3, 0.5), (3, 0.5)))  # duplicate weight
    with pytest.raises(InvalidDistribution):
        WeightDist(((3, 1.5),))
    with pytest.raises(InvalidDistribution):
        WeightDist(())


@pytest.mark.parametrize("atoms, message", [
    (((3, Fraction(1, 2)), (4, Fraction(1, 3))), "exact probabilities sum to 5/6 != 1"),
    (((3, 0.5), (4, 0.5 + 1e-11)), "off by > 1e-12"),
], ids=["exact", "float"])
def test_dist_masses_must_sum_to_one(atoms, message):
    with pytest.raises(InvalidDistribution, match=re.escape(message)):
        WeightDist(atoms)


@pytest.mark.parametrize("dist", [
    WeightDist.fixed(3),
    FIG1,
    WeightDist(((1, 0.2), (2, 0.5), (5, 0.3))),
    WeightDist(((2, Fraction(1, 3)), (5, Fraction(1, 6)), (9, Fraction(1, 2)))),
    WeightDist(((1, Fraction(1, 10)), (4, Fraction(7, 10)), (40, Fraction(1, 5)))),
], ids=["w3", "fig1", "mix125", "frac259", "frac1-4-40"])
def test_weight_at_array_equals_scalar(dist, rng):
    # random u, every cumulative sum and its float neighbours on both sides
    cum = np.array(dist._cum)
    u = np.concatenate((rng.random(2000), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0]))
    got = dist.weight_at(u)
    assert got.shape == u.shape
    assert got.tolist() == [dist.weight_at(float(x)) for x in u]


def test_sample_exact_point_mass(rng):
    d = WeightDist.fixed(3)
    assert row_weights(d, 100, "exact", rng, 200) == [3] * 200
    # truncation below the support: W_n = min(W, n)
    assert row_weights(d, 2, "exact", rng, 50) == [2] * 50


def test_sample_exact_mixture_frequency(rng):
    draws = 100_000
    hits = row_weights(FIG1, 1000, "exact", rng, draws).count(24)
    assert abs(hits / draws - 0.1) <= 0.01


def test_sample_binomial_one_urn(rng):
    d = WeightDist.fixed(3)
    assert row_weights(d, 1, "binomial", rng, 50) == [1] * 50


def test_sample_binomial_collision_rate(rng):
    # three balls land in distinct urns with probability exactly
    # (n-1)(n-2)/n^2; a collision leaves one odd urn.  (At weight 2 a
    # collision empties the row, which the sampler redraws.)
    d, n, draws = WeightDist.fixed(3), 1000, 100_000
    hits = row_weights(d, n, "binomial", rng, draws).count(3)
    assert abs(hits / draws - (n - 1) * (n - 2) / n**2) <= 5e-4


def test_sample_binomial_weight_preserved(rng):
    d, n, draws = WeightDist.fixed(3), 10_000, 100_000
    hits = row_weights(d, n, "binomial", rng, draws).count(3)
    assert hits / draws >= 0.999


def test_binomial_converges_in_distribution(rng):
    draws = 50_000
    devs = {}
    for n in (100, 10_000):
        hits = row_weights(FIG1, n, "binomial", rng, draws).count(3)
        devs[n] = abs(hits / draws - 0.9)
    assert devs[10_000] < devs[100]
    assert devs[10_000] <= 0.005


def test_per_n_law_truncation():
    assert FIG1.per_n_law_exact(10) == [(3, 0.9), (10, 0.1)]
    assert FIG1.per_n_law_exact(2) == [(2, pytest.approx(1.0))]
    assert FIG1.per_n_law_exact(100) == [(3, 0.9), (24, 0.1)]
