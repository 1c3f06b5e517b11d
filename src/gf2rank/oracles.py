"""Brute-force reference computations for desk-scale instances.

These deliberately share no code with the closed-form routes they check:
probabilities come from exhaustive enumeration over row tuples, ball throws,
or trial paths, in exact rational arithmetic.  Both row models share the
all-even and E[2^corank] enumerations over a row alphabet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import TooLarge
from .exact import ParitySpec
from .gf2 import RankState
from .weights import WeightDist


def _support_masks(n: int, r: int):
    masks = []
    for cols in combinations(range(n), r):
        m = 0
        for c in cols:
            m |= 1 << c
        masks.append(m)
    return masks


def _row_alphabet(n: int, law):
    """All (mask, probability) values of a single row under the exact scheme."""
    alphabet = []
    for r, p in law:
        p = Fraction(p)
        supports = _support_masks(n, r)
        share = p / len(supports)
        alphabet.extend((mask, share) for mask in supports)
    return alphabet


def _all_even(alphabet, m: int, limit: int) -> Fraction:
    """P[the XOR of m i.i.d. rows from the alphabet is 0], summed over every
    m-tuple of rows."""
    if len(alphabet) ** m > limit:
        raise TooLarge(f"{len(alphabet)}^{m} row tuples exceed {limit}")
    shares = {p for _, p in alphabet}
    if len(shares) == 1:  # uniform-probability fast path: count good tuples
        good = 0
        for rows in product([a for a, _ in alphabet], repeat=m):
            acc = 0
            for x in rows:
                acc ^= x
            if acc == 0:
                good += 1
        return good * shares.pop() ** m
    total = Fraction(0)
    for rows in product(alphabet, repeat=m):
        acc = 0
        prob = Fraction(1)
        for x, p in rows:
            acc ^= x
            prob *= p
        if acc == 0:
            total += prob
    return total


def _mean_two_to_corank(n: int, m: int, alphabet, limit: int) -> Fraction:
    """E[2^corank] over every matrix of m i.i.d. rows from the alphabet."""
    if len(alphabet) ** m > limit:
        raise TooLarge(f"{len(alphabet)}^{m} matrices exceed {limit}")
    total = Fraction(0)
    for rows in product(alphabet, repeat=m):
        state = RankState(n)
        prob = Fraction(1)
        for x, p in rows:
            state.absorb(x)
            prob *= p
        total += prob * 2 ** state.corank
    return total


def _ball_rows(dist: WeightDist, n: int, limit: int) -> dict:
    """{mask: probability} of one throw of the binomial scheme: W from dist,
    W balls uniform over n urns, the row the set of odd urns (0 if none)."""
    rows: dict = {}
    for k, p in dist.atoms:
        if n**k > limit:
            raise TooLarge(f"{n}^{k} throws exceed {limit}")
        share = Fraction(p) / Fraction(n) ** k
        for balls in product(range(n), repeat=k):
            mask = 0
            for u in balls:
                mask ^= 1 << u
            rows[mask] = rows.get(mask, Fraction(0)) + share
    return rows


def prob_A_enumerated(n: int, m: int, law, limit: int = 10**7) -> Fraction:
    """P[all column sums even] by summing over every m-tuple of rows."""
    return _all_even(_row_alphabet(n, law), m, limit)


def mean_null_count_enumerated(n: int, m: int, law, limit: int = 10**6) -> Fraction:
    """E[2^corank] by enumerating every possible matrix of m rows."""
    return _mean_two_to_corank(n, m, _row_alphabet(n, law), limit)


def binomial_null_count_enumerated(n: int, m: int, dist: WeightDist,
                                   limit: int = 10**6) -> Fraction:
    """E[2^corank] for rows of the binomial sampler, by enumerating every
    matrix of m nonempty ball-throw rows.  The sampler redraws an empty row,
    so the nonempty rows' probabilities are renormalised to sum to 1."""
    rows = _ball_rows(dist, n, limit)
    keep = 1 - rows.pop(0, Fraction(0))
    return _mean_two_to_corank(n, m, [(x, p / keep) for x, p in rows.items()], limit)


def pi_multinomial_enumerated(n: int, m: int, dist: WeightDist,
                              limit: int = 10**7) -> Fraction:
    """P[all urn occupancies even] by enumerating every m-tuple of ball-throw
    rows of the binomial scheme, empty rows included."""
    return _all_even(list(_ball_rows(dist, n, limit).items()), m, limit)


def binomial_weight_law(dist: WeightDist, n: int, limit: int = 10**6) -> list:
    """Exact pmf of the binomial-model row weight (odd-urn count), including 0."""
    masses: dict = {}
    for mask, p in _ball_rows(dist, n, limit).items():
        w = mask.bit_count()
        masses[w] = masses.get(w, Fraction(0)) + p
    return sorted(masses.items())


def parity_paths(spec: ParitySpec, n: int, limit: int = 10**7) -> Fraction:
    """Joint congruence probability by walking all (2^k)^n outcome paths."""
    cells = [(g, Fraction(p)) for g, p in enumerate(spec.cell_probs)]
    if len(cells) ** n > limit:
        raise TooLarge(f"{len(cells)}^{n} paths exceed {limit}")
    total = Fraction(0)
    for path in product(cells, repeat=n):
        counts = [0] * spec.k
        prob = Fraction(1)
        for g, p in path:
            prob *= p
            for i in range(spec.k):
                if (g >> i) & 1:
                    counts[i] += 1
        if all(c % spec.r == t for c, t in zip(counts, spec.targets)):
            total += prob
    return total

