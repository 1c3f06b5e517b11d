"""Brute-force reference computations for desk-scale instances.

These deliberately share no code with the closed-form routes they check:
probabilities come from exhaustive enumeration over row tuples, ball throws,
or trial paths, in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import TooLarge
from .exact import ParitySpec, _exact_fraction
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
        p = _exact_fraction(p)
        supports = _support_masks(n, r)
        share = p / len(supports)
        alphabet.extend((mask, share) for mask in supports)
    return alphabet


def prob_A_enumerated(n: int, m: int, law, limit: int = 10**7) -> Fraction:
    """P[all column sums even] by summing over every m-tuple of rows."""
    alphabet = _row_alphabet(n, law)
    if len(alphabet) ** m > limit:
        raise TooLarge(f"{len(alphabet)}^{m} row tuples exceed {limit}")
    # uniform-probability fast path: count good tuples
    if len({p for _, p in alphabet}) == 1:
        share = alphabet[0][1]
        good = 0
        for rows in product([a for a, _ in alphabet], repeat=m):
            acc = 0
            for x in rows:
                acc ^= x
            if acc == 0:
                good += 1
        return good * share**m
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


def mean_null_count_enumerated(n: int, m: int, law, limit: int = 10**6) -> Fraction:
    """E[2^corank] by enumerating every possible matrix of m rows."""
    alphabet = _row_alphabet(n, law)
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


def pi_multinomial_enumerated(n: int, m: int, dist: WeightDist,
                              limit: int = 10**7) -> Fraction:
    """P[all urn occupancies even] by enumerating every ball-throw sequence
    of the binomial scheme (per-row weight drawn from dist, balls uniform)."""
    weights = [(k, _exact_fraction(p)) for k, p in dist.atoms]
    per_row = []
    for k, p in weights:
        share = p / Fraction(n) ** k
        for balls in product(range(n), repeat=k):
            mask = 0
            for u in balls:
                mask ^= 1 << u
            per_row.append((mask, share))
    if len(per_row) ** m > limit:
        raise TooLarge(f"{len(per_row)}^{m} throw sequences exceed {limit}")
    total = Fraction(0)
    for rows in product(per_row, repeat=m):
        acc = 0
        prob = Fraction(1)
        for x, p in rows:
            acc ^= x
            prob *= p
        if acc == 0:
            total += prob
    return total


def binomial_weight_law(dist: WeightDist, n: int, limit: int = 10**6) -> list:
    """Exact pmf of the binomial-model row weight (odd-urn count), including 0."""
    masses: dict = {}
    for k, p in dist.atoms:
        p = _exact_fraction(p)
        if n**k > limit:
            raise TooLarge(f"{n}^{k} throws exceed {limit}")
        share = p / Fraction(n) ** k
        for balls in product(range(n), repeat=k):
            mask = 0
            for u in balls:
                mask ^= 1 << u
            w = mask.bit_count()
            masses[w] = masses.get(w, Fraction(0)) + share
    return sorted(masses.items())


def parity_paths(spec: ParitySpec, n: int, limit: int = 10**7) -> Fraction:
    """Joint congruence probability by walking all (2^k)^n outcome paths."""
    cells = [(g, _exact_fraction(p)) for g, p in enumerate(spec.cell_probs)]
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

