"""Exact reference computations for desk-scale instances.

These deliberately share no code with the closed-form routes they check:
every probability is a sum over row tuples, ball throws or trial paths, in
exact rational arithmetic.  ``_walk`` takes the sum over m-tuples of i.i.d.
rows grouped by the state each prefix reaches: the XOR of the rows for
P[A] and the urn probability, the span of the rows for E[2^corank], the XOR
of unit vectors for one throw of k balls.  By distributivity this is the
same sum as the enumeration of every tuple, with one term per reachable
state in place of one per tuple.  Both row models share the XOR and span
walks over a row alphabet.

``parity_paths`` stays an enumeration of every path: grouping its paths by
their count vector mod r would be ``multinomial_parity``'s own residue-count
DP, which it is there to check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import xor

from .errors import check_work
from .exact import ParitySpec
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
    """All (mask, probability) values of a single row under the exact scheme,
    whose row has min(W, n) distinct columns, with the masses of law scaled
    to sum to exactly 1."""
    alphabet = []
    total = sum(Fraction(p) for _, p in law)
    for r, p in law:
        supports = _support_masks(n, min(r, n))
        share = Fraction(p) / total / len(supports)
        alphabet.extend((mask, share) for mask in supports)
    return alphabet


def _walk(rows, m: int, step, start) -> dict:
    """{state: probability} after m i.i.d. draws from rows, (row, probability)
    pairs, where each draw moves the state s to step(s, row)."""
    law = {start: Fraction(1)}
    for _ in range(m):
        nxt: dict = {}
        for s, q in law.items():
            for x, p in rows:
                t = step(s, x)
                nxt[t] = nxt.get(t, 0) + q * p
        law = nxt
    return law


def _span_with(basis: tuple, x: int) -> tuple:
    """The reduced echelon basis of span(basis + x): rows in descending order,
    and no row holds another row's top bit."""
    for b in basis:
        x = min(x, x ^ b)  # clears b's top bit from x
    if x == 0:
        return basis
    top = 1 << (x.bit_length() - 1)
    return tuple(sorted([b ^ x if b & top else b for b in basis] + [x], reverse=True))


def _mean_two_to_corank(rows, m: int) -> Fraction:
    """E[2^corank] of m i.i.d. rows: corank = m - dim of their span."""
    return sum(p * 2 ** (m - len(v)) for v, p in _walk(rows, m, _span_with, ()).items())


def _ball_rows(dist: WeightDist, n: int) -> dict:
    """{mask: probability} of one throw of the binomial scheme: W from dist,
    W balls uniform over n urns, the row the set of odd urns (0 if none).  The
    masses of dist are scaled to sum to exactly 1."""
    urns = [(1 << u, Fraction(1, n)) for u in range(n)]
    rows: dict = {}
    total = sum(Fraction(p) for _, p in dist.atoms)
    for k, p in dist.atoms:
        for mask, q in _walk(urns, k, xor, 0).items():
            rows[mask] = rows.get(mask, 0) + Fraction(p) / total * q
    return rows


def prob_A(n: int, m: int, law) -> Fraction:
    """P[all column sums even] for m rows of the exact scheme."""
    return _walk(_row_alphabet(n, law), m, xor, 0).get(0, Fraction(0))


def mean_null_count(n: int, m: int, law) -> Fraction:
    """E[2^corank] for m rows of the exact scheme."""
    return _mean_two_to_corank(_row_alphabet(n, law), m)


def binomial_mean_null_count(n: int, m: int, dist: WeightDist) -> Fraction:
    """E[2^corank] for m rows of the binomial sampler: the nonempty ball-throw
    rows, since the sampler redraws an empty row, with their probabilities
    renormalised to sum to 1."""
    rows = _ball_rows(dist, n)
    keep = 1 - rows.pop(0, Fraction(0))
    return _mean_two_to_corank([(x, p / keep) for x, p in rows.items()], m)


def pi_urns(n: int, m: int, dist: WeightDist) -> Fraction:
    """P[all urn occupancies even] after m ball-throw rows of the binomial
    scheme, empty rows included."""
    return _walk(_ball_rows(dist, n).items(), m, xor, 0).get(0, Fraction(0))


def binomial_weight_law(dist: WeightDist, n: int) -> list:
    """Exact pmf of the binomial-model row weight (odd-urn count), including 0."""
    masses: dict = {}
    for mask, p in _ball_rows(dist, n).items():
        w = mask.bit_count()
        masses[w] = masses.get(w, Fraction(0)) + p
    return sorted(masses.items())


def parity_paths(spec: ParitySpec, n: int) -> Fraction:
    """Joint congruence probability by walking all (2^k)^n outcome paths."""
    cells = [(g, Fraction(p)) for g, p in enumerate(spec.cell_probs)]
    check_work("parity paths", n * len(cells) ** n)
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
