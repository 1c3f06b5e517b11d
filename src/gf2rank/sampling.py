"""Samplers for the random matrix model: i.i.d. rows, uniform support given weight.

RNG contract: streams come from numpy's PCG64 (a named, versioned 64-bit
generator).  A config with the same seed always reproduces the same matrix,
and per-trial streams are derived by ``derive_stream_seed``, which hashes the
(seed, trial_index) pair through SeedSequence, so that parallel and serial
harness runs see identical randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .gf2 import GF2Matrix, RankState
from .weights import WeightDist, sample_weight_exact

MODELS = ("exact", "binomial")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def derive_stream_seed(seed: int, trial: int) -> int:
    """Stream seed for one trial, usable in any order and in parallel.

    Hashes the (seed, trial) pair through SeedSequence rather than XOR-ing
    the two values: XOR with a small master seed merely permutes the same
    block of stream seeds, so aggregates from nearby master seeds would
    coincide.
    """
    w = np.random.SeedSequence((seed, trial)).generate_state(2)
    return int(w[0]) | (int(w[1]) << 64)


@dataclass(frozen=True)
class SampleConfig:
    n: int
    m: int
    dist: WeightDist
    model: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParam(f"n {self.n} < 1")
        if self.m < 0:
            raise InvalidParam(f"m {self.m} < 0")
        if self.model not in MODELS:
            raise InvalidParam(f"model {self.model!r} not in {MODELS}")
        # One urn holds every ball, so only an odd weight gives a nonempty row.
        if self.model == "binomial" and self.n == 1 and all(k % 2 == 0 for k, _ in self.dist.atoms):
            raise InvalidParam("binomial rows at n=1 need an odd weight; every weight is even")


def _uniform_subset_mask(n: int, k: int, rng) -> int:
    # Floyd's algorithm: uniform k-subset of [0, n) in k draws.
    mask = 0
    for j in range(n - k, n):
        bit = 1 << int(rng.integers(0, j + 1))
        if mask & bit:
            bit = 1 << j
        mask |= bit
    return mask


def _binomial_row(dist: WeightDist, n: int, rng) -> int:
    # Throw W balls into n urns, keep odd urns; redraw if all end up even.
    while True:
        w = dist.sample(rng)
        mask = 0
        for u in rng.integers(0, n, size=w):
            mask ^= 1 << int(u)
        if mask:
            return mask


def sample_row(cfg: SampleConfig, rng) -> int:
    """One row of M(n, m) as a column bitmask."""
    if cfg.model == "exact":
        k = sample_weight_exact(cfg.dist, cfg.n, rng)
        return _uniform_subset_mask(cfg.n, k, rng)
    return _binomial_row(cfg.dist, cfg.n, rng)


def sample_matrix(cfg: SampleConfig) -> GF2Matrix:
    """M(n, m) with i.i.d. rows, reproducible from cfg.seed."""
    rng = make_rng(cfg.seed)
    mat = GF2Matrix(cfg.n)
    for _ in range(cfg.m):
        mat.append_row(sample_row(cfg, rng))
    return mat


def run_Tn(cfg: SampleConfig) -> int:
    """First m at which the rows become linearly dependent over GF(2).

    Always at most n + 1.  The configured m is ignored; rows are drawn until
    the first dependency.
    """
    rng = make_rng(cfg.seed)
    state = RankState(cfg.n)
    m = 0
    while True:
        m += 1
        if state.absorb(sample_row(cfg, rng)):
            return m
