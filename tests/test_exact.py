import math
import re
from fractions import Fraction
from functools import cache

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from gf2rank import oracles
from gf2rank.errors import InvalidParam, PrecisionLoss, TooLarge
from gf2rank.exact import (
    PARITY_MAX_R,
    ParitySpec,
    _guarded_sum,
    expected_null_count,
    gfq_dense_survival,
    hypergeometric_even_overlap,
    multinomial_parity,
    pi_multinomial,
    poissonization_check,
    prob_A_general,
)
from gf2rank.gf2 import RankState
from gf2rank.sampling import derive_stream_seed
from gf2rank.weights import WeightDist, parse_rho

W1 = WeightDist.fixed(1)
W2 = WeightDist.fixed(2)
W3 = WeightDist.fixed(3)


def test_pi_two_balls_two_urns():
    assert pi_multinomial(2, 2, W1, exact=True) == Fraction(1, 2)
    assert abs(float(pi_multinomial(2, 2, W1)) - 0.5) < 1e-15


def test_pi_odd_m_is_zero():
    assert pi_multinomial(5, 3, W1, exact=True) == 0
    assert pi_multinomial(5, 7, W3, exact=True) == 0
    assert float(pi_multinomial(5, 3, W1)) == 0.0


def test_pi_against_ball_enumeration():
    for dist, n, m in ((W1, 2, 2), (W2, 3, 2), (W3, 3, 2), (W2, 2, 3)):
        assert pi_multinomial(n, m, dist, exact=True) == \
            oracles.pi_urns(n, m, dist)


def test_hypergeometric_even_overlap_values():
    assert hypergeometric_even_overlap(4, 0, 2) == 1
    assert hypergeometric_even_overlap(4, 1, 4) == 0  # all columns hit: overlap 1
    # r=0 rows overlap nothing, always even
    assert hypergeometric_even_overlap(5, 3, 0) == 1


def test_prob_A_two_weight2_rows():
    assert prob_A_general(3, 2, [(2, 1)], exact=True) == Fraction(1, 3)


def test_prob_A_single_row_zero():
    assert prob_A_general(3, 1, [(2, 1)], exact=True) == 0


def test_prob_A_matches_enumeration_w3():
    got = prob_A_general(6, 3, [(3, 1)], exact=True)
    want = oracles.prob_A(6, 3, [(3, 1)])
    assert got == want


def test_prob_A_mixture_law_matches_enumeration():
    law = [(1, Fraction(1, 4)), (2, Fraction(3, 4))]
    for m in range(4):
        assert prob_A_general(4, m, law, exact=True) == \
            oracles.prob_A(4, m, law)


def test_prob_A_float_path_matches_exact():
    # odd m with mixed weight parity exercises the alternating-sign branch
    law = [(2, Fraction(1, 2)), (3, Fraction(1, 2))]
    want = prob_A_general(40, 7, law, exact=True)
    got = prob_A_general(40, 7, law)
    assert want != 0
    assert abs(float((got - want) / want)) < 1e-14


def _mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("precision", [53, 256])
def test_prob_A_float_is_the_exact_value_rounded_once(precision):
    # m = 1 is a true zero for every law without weight 0, which no parity
    # rule predicts when a weight is even; the guarded mpf sum could not
    # certify it at n = 40
    cases = [([(2, 1)], 40, 1), ([(2, 1)], 12, 1), ([(2, Fraction(1, 2)), (3, Fraction(1, 2))], 40, 1),
             ([(2, 1)], 40, 3), ([(2, Fraction(1, 2)), (3, Fraction(1, 2))], 40, 7),
             ([(3, 1)], 30, 10), ([(1, 0.25), (4, 0.75)], 25, 6)]
    for law, n, m in cases:
        want = prob_A_general(n, m, law, exact=True)
        got = _mpf_fraction(prob_A_general(n, m, law, precision=precision))
        assert abs(got - want) <= abs(want) / 2**precision, (law, n, m)
    assert prob_A_general(40, 1, [(2, 1)]) == 0


def test_prob_A_structural_zero_all_odd():
    assert prob_A_general(40, 7, [(3, 1)], exact=True) == 0
    assert float(prob_A_general(40, 7, [(3, 1)])) == 0.0


def test_prob_A_rejects_bad_support():
    with pytest.raises(InvalidParam):
        prob_A_general(3, 1, [(4, 1)])
    with pytest.raises(InvalidParam):
        prob_A_general(3, 1, [])


def test_expected_null_count_empty():
    total, profile = expected_null_count(5, 0, W3, exact=True)
    assert total == 1
    assert profile == {0: 1}


def test_expected_null_count_small():
    total, profile = expected_null_count(3, 2, W2, exact=True)
    assert total == Fraction(4, 3)
    assert profile[0] == 1 and profile[1] == 0 and profile[2] == Fraction(1, 3)


def test_expected_null_count_matches_corank_enumeration():
    for m in range(4):
        want = oracles.mean_null_count(4, m, [(2, 1)])
        got, _ = expected_null_count(4, m, W2, exact=True)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_span_with_is_the_canonical_basis_of_the_span(data, n):
    # the span walk's state: the same rows in any order give the same tuple,
    # one row per rank of the span, and no row holds another's top bit
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    order = data.draw(st.permutations(rows))
    bases = []
    for seq in (rows, order):
        basis = ()
        for x in seq:
            basis = oracles._span_with(basis, x)
        bases.append(basis)
    state = RankState(n)
    for x in rows:
        state.absorb(x)
    basis = bases[0]
    assert bases[1] == basis
    assert len(basis) == len(rows) - state.corank
    assert list(basis) == sorted(basis, reverse=True)
    top = {b: 1 << (b.bit_length() - 1) for b in basis}
    assert all(not b & top[c] for b in basis for c in basis if c != b)


def test_pair_weight_profile_identity():
    # two rows cancel iff identical: E[N(n,m;2)] = C(m,2) / C(n,r)
    for n, m, r in ((6, 4, 3), (8, 5, 3), (7, 4, 2)):
        dist = WeightDist.fixed(r)
        _, profile = expected_null_count(n, m, dist, exact=True)
        assert profile[2] == Fraction(math.comb(m, 2), math.comb(n, r))


def test_expected_null_count_near_rate_function():
    from gf2rank.thresholds import F_of_alpha
    from gf2rank.verification import RATE_ALPHAS, RATE_NS, suite_asymptotics
    total, _ = expected_null_count(60, 54, W3)
    rate = float(mp.log(total)) / 60
    f = F_of_alpha(W3, 0.9)[0]
    assert abs(rate - f) <= 0.05
    # |n^-1 log E[N(n, alpha n)] - F(alpha)| <= 0.2 log(n) / n up to n = 480
    rate_checks = [c for c in suite_asymptotics() if "log E[N] / n" in c.name]
    assert len(rate_checks) == len(RATE_ALPHAS) * len(RATE_NS)
    assert all(c.passed for c in rate_checks), [c.line() for c in rate_checks if not c.passed]


# --- E[N] against the per-l route it replaced --------------------------------

GATE_DISTS = (
    W1, W2, W3,
    WeightDist(((3, 0.75), (5, 0.25))),
    WeightDist(((2, Fraction(1, 3)), (3, Fraction(2, 3)))),
    WeightDist(((3, Fraction(1, 2)), (45, Fraction(1, 2)))),  # 45 truncated below n = 45
)
GATE_NS = tuple(range(1, 21)) + (22, 25, 28, 30)


@cache
def _empty_row(n, dist):
    """P0, the chance that a throw of the binomial scheme leaves every urn
    even: the urn all-even probability of a single row, summed over every j."""
    return _full_range_sums(n, 1, [_lambda(n, j, dist, "urn") for j in range(n + 1)])[1]


def _per_l_route(n, m, dist, model):
    """E[N] as sum_l C(m,l) P[A(n,l)], one all-even probability per l.

    The binomial sampler redraws empty rows.  A throw is empty with chance
    P0 and otherwise a sampler row, so by binomial inversion the sampler's
    P[A(n,l)] is (1 - P0)^-l sum_k C(l,k) (-P0)^(l-k) pi(n,k), with pi the
    urn probability that counts empty rows."""
    if model == "exact":
        law = dist.per_n_law_exact(n)
        prob = lambda l: prob_A_general(n, l, law, exact=True)
    else:
        p0 = _empty_row(n, dist)
        pis = [pi_multinomial(n, k, dist, exact=True) for k in range(m + 1)]
        prob = lambda l: sum(math.comb(l, k) * (-p0) ** (l - k) * pis[k]
                             for k in range(l + 1)) / (1 - p0) ** l
    profile = {l: math.comb(m, l) * prob(l) for l in range(m + 1)}
    return sum(profile.values()), profile


@pytest.mark.parametrize("model", ["exact", "binomial"])
def test_expected_null_count_matches_per_l_route(model):
    # 6 distributions x 24 n x 2 models = 288 cases; m = n + 2 puts every
    # l in 0..n+2 in the profile, and m = n - 1 checks a second total.  At
    # n = 1 weight 2 makes no nonempty binomial row, which is refused.
    for dist in GATE_DISTS:
        for n in GATE_NS:
            for m in (n + 2, n - 1):
                if model == "binomial" and n == 1 and dist is W2:
                    with pytest.raises(InvalidParam):
                        expected_null_count(n, m, dist, model=model, exact=True)
                    continue
                got = expected_null_count(n, m, dist, model=model, exact=True)
                assert got == _per_l_route(n, m, dist, model), (dist, n, m)


def _scaled(law):
    """law with its masses as Fractions scaled to sum to exactly 1."""
    total = sum(Fraction(p) for _, p in law)
    return [(w, Fraction(p) / total) for w, p in law]


def _lambda(n, j, dist, model):
    """lambda_j of a row of the exact model, of a binomial sampler row, or of
    a throw of the urn scheme ("urn"), for one j and with no folding."""
    if model == "exact":
        return 2 * sum(p * hypergeometric_even_overlap(n, j, r)
                       for r, p in _scaled(dist.per_n_law_exact(n))) - 1
    s = Fraction(n - 2 * j, n)
    urn = sum(p * s**k for k, p in _scaled(dist.atoms))
    if model == "urn":
        return urn
    p0 = _empty_row(n, dist)  # a sampler row: a throw conditioned on being nonempty
    return (urn - p0) / (1 - p0)


@pytest.mark.parametrize("model", ["exact", "binomial"])
def test_expected_null_count_collapsed_form(model):
    # sum_l C(m,l) lambda^l = (1 + lambda)^m, so E[N] = 2^-n sum_j C(n,j) (1 + lambda_j)^m
    for dist in GATE_DISTS[1:3] + GATE_DISTS[4:]:
        for n, m in ((7, 9), (16, 15), (40, 38)):
            want = sum(math.comb(n, j) * (1 + _lambda(n, j, dist, model)) ** m
                       for j in range(n + 1)) / Fraction(2) ** n
            assert expected_null_count(n, m, dist, model=model, exact=True)[0] == want


@pytest.mark.parametrize("model", ["exact", "binomial"])
@pytest.mark.parametrize("dist", [W3, W2], ids=["W3", "W2"])
def test_expected_null_count_rounds_at_requested_precision(model, dist):
    # W2 in the exact model has a true zero at l = 1 (one row is never null)
    # that no parity rule predicts, and a guarded float sum cannot certify
    precision = 512
    got_total, got_profile = expected_null_count(40, 38, dist, model=model, precision=precision)
    want_total, want_profile = expected_null_count(40, 38, dist, model=model, exact=True)
    assert set(got_profile) == set(want_profile)
    pairs = [(got_total, want_total)] + [(got_profile[l], want_profile[l]) for l in want_profile]
    with mp.workprec(4 * precision):
        for got, want in pairs:
            exact_value = mp.mpf(want.numerator) / want.denominator
            assert abs(got - exact_value) <= mp.mpf(2) ** -500 * abs(exact_value)


# --- the folded sums against the full range j = 0..n ----------------------

def _full_range_sums(n, top, lams):
    """2^-n sum_{j=0}^{n} C(n,j) lambda_j^l for l = 0..top, every j summed:
    with lambda_j = a_j / d, the integer sum_j C(n,j) a_j^l over 2^n d^l."""
    d = math.lcm(*(q.denominator for q in lams))
    terms = [math.comb(n, j) for j in range(n + 1)]  # C(n,j) a_j^l
    a = [q.numerator * (d // q.denominator) for q in lams]
    sums = []
    for l in range(top + 1):
        sums.append(Fraction(sum(terms), d**l << n))
        terms = [t * x for t, x in zip(terms, a)]
    return sums


FOLD_DISTS = {
    "w1": W1, "w2": W2, "w3": W3, "3-5": GATE_DISTS[3], "2-3": GATE_DISTS[4],
    "3-45": GATE_DISTS[5],  # one parity at odd n < 45 and at n >= 45
    "w4": WeightDist.fixed(4),
    "2-4": WeightDist(((2, Fraction(1, 2)), (4, Fraction(1, 2)))),
    "fig1": parse_rho("0.9:3,0.1:24"),
}


@pytest.mark.parametrize("model", ["exact", "binomial"])
@pytest.mark.parametrize("name", list(FOLD_DISTS))
def test_exact_sums_equal_the_full_range_oracle(name, model):
    # E[N] (total and profile), P[A] and pi sum lambda_j only for j <= n/2
    # when the law folds; the oracle sums every j of the unfolded lambda_j.
    # l is a structural zero (odd, every weight odd) exactly where they give 0.
    dist = FOLD_DISTS[name]
    for n in range(43, 48) if name == "3-45" else range(1, 31):
        weights = [r for r, _ in dist.per_n_law_exact(n)] if model == "exact" else \
            [k for k, _ in dist.atoms]
        odd = all(w % 2 for w in weights)
        if model == "binomial" and n == 1 and not any(w % 2 for w in weights):
            with pytest.raises(InvalidParam):  # no nonempty row
                expected_null_count(n, 2, dist, model=model, exact=True)
        else:
            full = _full_range_sums(n, n + 2, [_lambda(n, j, dist, model) for j in range(n + 1)])
            for m in (n - 1, n + 2):
                want = {l: 0 if odd and l % 2 else math.comb(m, l) * full[l] for l in range(m + 1)}
                total, profile = expected_null_count(n, m, dist, model=model, exact=True)
                assert profile == want and total == sum(want.values()), (name, n, m)
        if model == "exact":
            law = dist.per_n_law_exact(n)
            for m in range(n - 1, n + 3):
                want = 0 if odd and m % 2 else full[m]
                assert prob_A_general(n, m, law, exact=True) == want, (name, n, m)
        else:
            urn = _full_range_sums(n, n + 2, [_lambda(n, j, dist, "urn") for j in range(n + 1)])
            for m in range(n - 1, n + 3):
                want = 0 if odd and m % 2 else urn[m]
                assert pi_multinomial(n, m, dist, exact=True) == want, (name, n, m)


FIG1 = FOLD_DISTS["fig1"]


@pytest.mark.parametrize("model", ["exact", "binomial"])
def test_float_masses_are_scaled_to_sum_to_one(model):
    # FIG1's float masses sum to 1 + 2^-55 as Fractions; read as they are,
    # one nonempty row would be null with chance 2^-55 in the exact model
    scaled = WeightDist(tuple(_scaled(FIG1.atoms)))
    for n in range(1, 31):
        got = expected_null_count(n, n + 2, FIG1, model=model, exact=True)
        assert got[1][1] == 0, n
        assert got == expected_null_count(n, n + 2, scaled, model=model, exact=True), n
        if model == "exact":
            assert prob_A_general(n, 1, FIG1.per_n_law_exact(n), exact=True) == 0, n
            for m in (n - 1, n + 2):
                assert prob_A_general(n, m, FIG1.per_n_law_exact(n), exact=True) == \
                    prob_A_general(n, m, scaled.per_n_law_exact(n), exact=True), (n, m)
        else:
            for m in (n - 1, n + 2):
                assert pi_multinomial(n, m, FIG1, exact=True) == \
                    pi_multinomial(n, m, scaled, exact=True), (n, m)


def test_oracles_scale_float_masses_as_the_exact_layer_does():
    # 0.9 + 0.1 is 1 + 2^-55 as Fractions
    dist = WeightDist(((3, 0.9), (4, 0.1)))
    law = dist.per_n_law_exact(5)
    assert oracles.prob_A(5, 4, law) == prob_A_general(5, 4, law, exact=True)
    assert oracles.pi_urns(4, 4, dist) == pi_multinomial(4, 4, dist, exact=True)
    assert oracles.mean_null_count(4, 3, dist.atoms) == \
        expected_null_count(4, 3, dist, exact=True)[0]
    assert oracles.binomial_mean_null_count(4, 3, dist) == \
        expected_null_count(4, 3, dist, model="binomial", exact=True)[0]


def test_parity_exact_float_cells_sum_to_one():
    # 0.1 + 0.9 is 1 + 2^-55 as Fractions
    specs = [ParitySpec(r=3, targets=(t,), cell_probs=(0.1, 0.9)) for t in range(3)]
    assert sum(multinomial_parity(spec, 5, exact=True) for spec in specs) == 1


def test_guarded_sum_refuses_a_cancelled_zero():
    with pytest.raises(PrecisionLoss):
        _guarded_sum(lambda: iter([mp.mpf(1), mp.mpf(-1)]), 53)
    assert _guarded_sum(lambda: iter([mp.mpf(0), mp.mpf(0)]), 53) == 0


@pytest.mark.parametrize("name", ["w1", "w2", "w3", "3-5", "fig1", "mixed"])
def test_pi_multinomial_float_within_guard_of_exact(name):
    # the guard promises 1e-15 relative; folded laws (w1, w2, w3 and the
    # all-odd 3-5) and mixed-parity ones (fig1 at these n, mixed)
    dist = WeightDist(((2, 0.5), (3, 0.3), (7, 0.2))) if name == "mixed" else FOLD_DISTS[name]
    for n in (31, 64, 257, 400):
        for m in (2, 2 * round(0.45 * n), 2 * round(0.45 * n) + 1):
            want = pi_multinomial(n, m, dist, exact=True)
            got = pi_multinomial(n, m, dist)
            if want == 0:  # odd m with every weight odd
                assert got == 0
                continue
            with mp.workprec(1024):
                exact_value = mp.mpf(want.numerator) / want.denominator
                assert abs(got - exact_value) <= 1e-15 * exact_value, (n, m)


def _pi_reference(n, m, dist, precision=256):
    """The guarded pi sum with every binomial from math.comb."""
    def terms():
        half = mp.mpf(1) / 2
        for j in range(n + 1):
            s = 1 - 2 * mp.mpf(j) / n
            yield half**n * math.comb(n, j) * dist.pgf(s) ** m
    return _guarded_sum(terms, precision, amplification=m + n)


def test_pi_multinomial_bit_identical_to_comb_reference():
    # not bit for bit: repr rounds both sums to mpmath's default 15 digits
    # (53 bits) and compares those
    mixed = WeightDist(((2, 0.5), (3, 0.3), (7, 0.2)))
    for dist, n, m in ((W3, 400, 380), (mixed, 400, 381), (mixed, 257, 64),
                       (W2, 100, 33), (mixed, 31, 1), (W1, 60, 60)):
        assert repr(pi_multinomial(n, m, dist)) == repr(_pi_reference(n, m, dist))
    assert repr(pi_multinomial(50, 40, mixed, precision=64)) == \
        repr(_pi_reference(50, 40, mixed, precision=64))


def test_poissonization_identity():
    lhs, rhs = poissonization_check(4, 4, 1.0)
    assert abs(lhs - rhs) <= 1e-12
    lhs, rhs = poissonization_check(2, 2, 0.5)
    assert abs(lhs - 0.5) <= 1e-12
    lhs, rhs = poissonization_check(6, 3, 0.7)
    assert lhs == 0 and rhs == 0


@pytest.mark.parametrize("mu", [1e6, 1e300])
def test_poissonization_huge_mu(mu):
    # e^-mu is taken by exp, not as a power of a rounded e, so the identity
    # holds to a few ulps of the default 256 bits at any finite mu
    for n, m in ((3, 2), (4, 4), (6, 4)):
        lhs, rhs = poissonization_check(n, m, mu)
        assert abs(lhs - rhs) <= mp.mpf(2) ** -240 * lhs, (n, m)


def test_parity_binomial_closed_form():
    spec = ParitySpec(r=2, targets=(0,), cell_probs=(0.3, 0.7))
    for n in (0, 1, 5, 12):
        want = (1 + (1 - 2 * 0.7) ** n) / 2
        assert abs(multinomial_parity(spec, n) - want) < 1e-12


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.01, 0.99), n=st.integers(0, 60))
def test_parity_binomial_closed_form_property(p, n):
    spec = ParitySpec(r=2, targets=(0,), cell_probs=(1 - p, p))
    want = (1 + (1 - 2 * p) ** n) / 2
    assert abs(multinomial_parity(spec, n) - want) < 1e-11


def test_parity_n0():
    spec = ParitySpec(r=3, targets=(0, 0), cell_probs=(0.25,) * 4)
    assert multinomial_parity(spec, 0) == pytest.approx(1.0, abs=1e-12)
    spec = ParitySpec(r=3, targets=(1, 0), cell_probs=(0.25,) * 4)
    assert multinomial_parity(spec, 0) == pytest.approx(0.0, abs=1e-12)
    # the exact path has no such residue
    exact_spec = ParitySpec(r=3, targets=(1, 0),
                            cell_probs=(Fraction(1, 4),) * 4)
    assert multinomial_parity(exact_spec, 0, exact=True) == 0


def test_parity_exact_matches_paths():
    # every modulus in 2..8; distinct denominators and, for k >= 2, an empty
    # cell; n runs past r at k = 1
    for k in (1, 2, 3):
        weights = [(3 * g) % 7 if k > 1 else g + 1 for g in range(1 << k)]
        probs = tuple(Fraction(w, (g % 3 + 1) * sum(weights)) for g, w in enumerate(weights))
        probs = probs[:-1] + (1 - sum(probs[:-1]),)
        floats = tuple(map(float, probs))
        for r in range(2, PARITY_MAX_R + 1):
            for t in ((0,) * k, tuple((i + 1) % r for i in range(k)), (r - 1,) * k):
                spec = ParitySpec(r=r, targets=t, cell_probs=probs)
                float_spec = ParitySpec(r=r, targets=t, cell_probs=floats)
                for n in range({1: 10, 2: 6, 3: 4}[k]):
                    assert multinomial_parity(spec, n, exact=True) == \
                        oracles.parity_paths(spec, n), (k, r, t, n)
                    # the float route's error is absolute, about 1e-15 at small n
                    want = multinomial_parity(float_spec, n, exact=True)
                    assert abs(multinomial_parity(float_spec, n) - want) <= 1e-15, (k, r, t, n)


def test_parity_exact_higher_modulus():
    # fair cells at r = 4: both routes against the path walk
    probs = (Fraction(1, 2), Fraction(1, 2))
    spec = ParitySpec(r=4, targets=(2,), cell_probs=probs)
    for n in range(6):
        assert multinomial_parity(spec, n, exact=True) == oracles.parity_paths(spec, n)
        f = multinomial_parity(spec, n)
        assert abs(f - float(oracles.parity_paths(spec, n))) < 1e-12


def test_parity_spec_validation():
    with pytest.raises(InvalidParam):
        ParitySpec(r=9, targets=(0,), cell_probs=(1, 0))
    with pytest.raises(InvalidParam):
        ParitySpec(r=2, targets=(0,) * 11, cell_probs=(1,) * (1 << 11))
    with pytest.raises(InvalidParam):  # k is the number of targets, at least 1
        ParitySpec(r=2, targets=(), cell_probs=(1,))
    with pytest.raises(InvalidParam):
        ParitySpec(r=2, targets=(2,), cell_probs=(0.5, 0.5))
    with pytest.raises(InvalidParam):
        ParitySpec(r=2, targets=(0,), cell_probs=(0.4, 0.4))


@pytest.mark.parametrize("call, error, message", [
    (lambda: expected_null_count(4, 2, W3, model="x"), InvalidParam, "model 'x' not in"),
    (lambda: ParitySpec(r=2, targets=(0,), cell_probs=(Fraction(1, 3), Fraction(1, 3))),
     InvalidParam, "exact cell probabilities sum to 2/3"),
    (lambda: oracles.parity_paths(ParitySpec(r=2, targets=(0,), cell_probs=(0.5, 0.5)), 24),
     TooLarge, "parity paths: path steps n (2^k)^n = 402653184 exceeds the budget 4000000"),
], ids=["en-model", "parity-exact-cells", "parity-paths"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_gfq_limits():
    assert gfq_dense_survival(2, 0) == 0.0
    want = 1.0
    for j in range(3, 80):
        want *= 1 - 2.0**-j
    assert abs(gfq_dense_survival(2, 3) - want) < 1e-14


def test_gfq_finite_n_monotone_to_limit():
    # finite-n survival decreases to the limit from above (monotone for n >= r)
    lim = gfq_dense_survival(2, 2)
    prev = 1.0
    for n in (5, 10, 20, 40):
        val = gfq_dense_survival(2, 2, n)
        assert lim - 1e-15 <= val <= prev + 1e-15
        prev = val
    assert abs(gfq_dense_survival(2, 2, 60) - lim) < 1e-12


def test_gfq_lower_bounds_hold():
    # uniform-in-n lower bounds for P[T_n > n + 1 - r], the oracle here
    for q in (2, 3, 4, 5):
        for r in (1, 2, 3, 6):
            lb = (math.exp(-(4.0 / 3.0) * 2.0 ** (1 - r)) if q == 2
                  else math.exp(-float(q) ** (1 - r)))
            assert gfq_dense_survival(q, r, 40) >= lb - 1e-12


def test_gfq_validation():
    with pytest.raises(InvalidParam):
        gfq_dense_survival(6, 1)  # not a prime power
    with pytest.raises(InvalidParam):
        gfq_dense_survival(2, -1)
    with pytest.raises(InvalidParam):
        gfq_dense_survival(2, 5, 4)


def test_gfq_against_simulation():
    # small. the full-precision version is in the acceptance suite
    n, trials = 20, 4000
    dist = WeightDist.fixed(1)  # placeholder; dense rows sampled directly
    from gf2rank.sampling import make_rng
    hits = {r: 0 for r in (1, 2, 3)}
    for t in range(trials):
        rng = make_rng(derive_stream_seed(99, t))
        state = RankState(n)
        m = 0
        while True:
            m += 1
            if state.absorb(int(rng.integers(1, (1 << n) - 1, endpoint=True))):
                break
        for r in hits:
            hits[r] += m > n + 1 - r
    for r, c in hits.items():
        assert abs(c / trials - gfq_dense_survival(2, r, n)) <= 0.03
