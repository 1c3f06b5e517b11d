"""Row-weight distributions and their probability generating functions.

A weight distribution is a finitely supported law on {1, 2, ...} given by its
atoms.  It induces, for every column count n, two per-n row-weight laws:

* the exact model, where the drawn weight is truncated to ``min(W, n)`` and the
  row support is a uniform subset of that size, and
* the binomial model, where W balls are thrown uniformly into n urns and the
  row is the set of urns holding an odd number of balls (possibly empty).

Probabilities are stored as given.  Floats are the default; exact rationals
(``fractions.Fraction`` or int) are accepted and preserved, which the oracle
tests use to get exact generating-function values.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidDistribution, ParseError

_SUM_TOL = 1e-12
_PARSE_SUM_TOL = 1e-9


def _is_exact(p) -> bool:
    return isinstance(p, (int, Fraction))


@dataclass(frozen=True)
class WeightDist:
    """Finitely supported weight law, held as sorted (weight, probability) atoms."""

    atoms: tuple  # ((k, p), ...) with k ascending

    _cum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple(sorted((int(k), p) for k, p in self.atoms))
        if not atoms:
            raise InvalidDistribution("no atoms")
        ks = [k for k, _ in atoms]
        if len(set(ks)) != len(ks):
            raise InvalidDistribution(f"duplicate weights in {ks}")
        for k, p in atoms:
            if k < 1:
                raise InvalidDistribution(f"weight {k} < 1")
            if not 0 < p <= 1:
                raise InvalidDistribution(f"probability {p} outside (0, 1]")
        total = sum(p for _, p in atoms)
        if all(_is_exact(p) for _, p in atoms):
            if total != 1:
                raise InvalidDistribution(f"exact probabilities sum to {total} != 1")
        elif abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total!r}, off by > {_SUM_TOL}")
        object.__setattr__(self, "atoms", atoms)
        cum = []
        acc = 0.0
        for _, p in atoms:
            acc += float(p)
            cum.append(acc)
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", tuple(cum))

    @property
    def min_weight(self) -> int:
        return self.atoms[0][0]

    @property
    def max_weight(self) -> int:
        return self.atoms[-1][0]

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(p) for _, p in self.atoms)

    def pgf(self, s, order: int = 0):
        """Evaluate the pgf or one of its first three derivatives at s.

        The result type follows the argument types: float atoms with a float s
        give a float, Fraction atoms with a Fraction s give an exact Fraction,
        and an mpmath argument gives an mpmath value.  A numpy array s gives a
        float64 array whatever the atom types.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order {order} not in 0..3")
        array = isinstance(s, np.ndarray)
        total = 0 * s
        for k, p in self.atoms:
            if k >= order:
                total += (float(p) if array else p) * math.perm(k, order) * s ** (k - order)
        return total

    def mean(self):
        """E[W] = pgf'(1)."""
        return sum(k * p for k, p in self.atoms)

    def prob(self, k: int):
        for kk, p in self.atoms:
            if kk == k:
                return p
        return 0

    def sample(self, rng) -> int:
        """Draw one weight from the limiting law."""
        i = bisect_left(self._cum, rng.random())
        return self.atoms[min(i, len(self.atoms) - 1)][0]

    def per_n_law_exact(self, n: int) -> list:
        """Per-n law of the exact model: W truncated to min(W, n)."""
        masses = {}
        for k, p in self.atoms:
            kk = min(k, n)
            masses[kk] = masses.get(kk, 0) + p
        return sorted(masses.items())

    def to_json(self) -> str:
        return json.dumps({"atoms": [{"k": k, "p": float(p)} for k, p in self.atoms]})

    @classmethod
    def from_json(cls, text: str) -> "WeightDist":
        try:
            obj = json.loads(text)
            atoms = [(a["k"], a["p"]) for a in obj["atoms"]]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad weight-distribution JSON: {exc}") from exc
        return cls(tuple(atoms))

    @classmethod
    def fixed(cls, r: int) -> "WeightDist":
        """Point mass at weight r."""
        return cls(((r, 1),))


def parse_rho(spec: str) -> WeightDist:
    """Parse a weight spec: ``p1:k1,p2:k2,...`` or ``r=K`` for a point mass.

    Probabilities must sum to 1 within 1e-9 and are renormalized to sum to 1.
    """
    spec = spec.strip()
    if not spec:
        raise ParseError("empty weight spec")
    if spec.startswith("r="):
        try:
            r = int(spec[2:])
        except ValueError as exc:
            raise ParseError(f"bad point-mass spec {spec!r}") from exc
        if r < 1:
            raise InvalidDistribution(f"weight {r} < 1")
        return WeightDist.fixed(r)
    atoms = []
    for tok in spec.split(","):
        parts = tok.strip().split(":")
        if len(parts) != 2:
            raise ParseError(f"malformed token {tok!r} (want p:k)")
        try:
            p = float(parts[0])
            k = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"malformed token {tok!r}: {exc}") from exc
        atoms.append((k, p))
    for k, p in atoms:
        if k < 1:
            raise InvalidDistribution(f"weight {k} < 1")
        if p <= 0:
            raise InvalidDistribution(f"probability {p} <= 0")
    total = sum(p for _, p in atoms)
    if abs(total - 1.0) > _PARSE_SUM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total}, off by > {_PARSE_SUM_TOL}")
    return WeightDist(tuple((k, p / total) for k, p in atoms))


def sample_weight_exact(dist: WeightDist, n: int, rng) -> int:
    """Row weight under the exact model with n columns: min(W, n)."""
    return min(dist.sample(rng), n)


def sample_weight_binomial(dist: WeightDist, n: int, rng) -> int:
    """Row weight under the binomial model: throw W balls into n urns
    and count urns with odd occupancy.  May return 0 (empty row)."""
    w = dist.sample(rng)
    odd = 0
    for u in rng.integers(0, n, size=w):
        odd ^= 1 << int(u)
    return odd.bit_count()
