"""Samplers for the random matrix model: i.i.d. rows, uniform support given weight.

RNG contract: streams come from numpy's PCG64 (a named, versioned 64-bit
generator).  A config with the same seed always reproduces the same matrix,
and per-trial streams are derived by ``derive_stream_seed``, which hashes the
(seed, trial_index) pair through SeedSequence, so that parallel and serial
harness runs see identical randomness.

``sample_row`` defines the stream: one ``random()`` for the weight, then one
bounded ``integers`` draw per Floyd step (exact model) or per ball (binomial
model).  ``sample_rows`` is the block route that ``sample_matrix``,
``run_Tn`` and the classical-limit trials use.  It draws one
``BitGenerator.random_raw`` block and decodes its 64-bit words in Python the
way numpy's ``Generator`` consumes them for PCG64: ``random()`` takes the top
53 bits of a fresh word, and ``integers(0, h)`` is Lemire's bounded draw on a
32-bit half-word, low half first, with the high half kept in the generator's
``has_uint32``/``uinteger`` buffer.  It returns the rows that successive
``sample_row`` calls would and leaves the generator where they would, so the
seed -> matrix map is unchanged; ``sample_row`` stays as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidParam
from .gf2 import GF2Matrix, RankState
from .weights import WeightDist

MODELS = ("exact", "binomial")

_U32 = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53, as numpy's random() scales 53 bits
_MATRIX_BLOCK = 1024  # rows per sample_rows call in sample_matrix
_STREAM_BLOCK = 256   # rows per sample_rows call in stream_rows


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
        k = min(cfg.dist.sample(rng), cfg.n)
        return _uniform_subset_mask(cfg.n, k, rng)
    return _binomial_row(cfg.dist, cfg.n, rng)


def sample_rows(cfg: SampleConfig, rng, count: int) -> list:
    """The rows of ``count`` successive ``sample_row(cfg, rng)`` calls.

    Decodes one ``random_raw`` block as numpy's Generator would (see the module
    docstring) and leaves ``rng`` exactly where those calls would leave it,
    buffered half-word included.  Generators other than PCG64 take the scalar
    route, as does n above 2^32 - 1, where numpy leaves the 32-bit draw.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64 or cfg.n > _U32:
        return [sample_row(cfg, rng) for _ in range(count)]
    start = bg.state
    rows, used, has, half = _decode_rows(cfg, bg, count, start["has_uint32"], start["uinteger"])
    bg.state = start  # back to the start of the block, then over the words used
    bg.advance(used)
    state = bg.state
    state["has_uint32"], state["uinteger"] = has, half
    bg.state = state
    return rows


def _decode_rows(cfg: SampleConfig, bg, count: int, has: int, half: int):
    """(rows, words used, has, half) for ``count`` rows decoded from bg's raw
    words, where (has, half) is numpy's buffered half-word before and after."""
    n, dist, exact = cfg.n, cfg.dist, cfg.model == "exact"
    weight_at, k0, mixed = dist.weight_at, dist.min_weight, len(dist.atoms) > 1
    # words one row attempt takes without a rejection: at most, and on average
    most = 1 + ((min(dist.max_weight, n) if exact else dist.max_weight) + 1) // 2
    per_row = 1 + float(dist.mean()) / 2
    words = bg.random_raw(int(count * per_row) + most).tolist()
    i = 0
    rows = []
    left = count
    while left > 0:
        if i + most > len(words):
            words += bg.random_raw(int(left * per_row) + most).tolist()
        k = weight_at((words[i] >> 11) * _DOUBLE_UNIT) if mixed else k0
        i += 1
        if exact:  # Floyd's step j = h - 1 draws from [0, h)
            k = min(k, n)
            bounds = range(n - k + 1, n + 1)
        else:  # each of the k balls draws its urn from [0, n)
            bounds = repeat(n, k)
        mask = 0
        for h in bounds:
            if h == 1:  # integers(0, 1) draws nothing
                r = 0
            else:
                if has:
                    x, has = half, 0
                else:
                    w = words[i]
                    i += 1
                    x, half, has = w & _U32, w >> 32, 1
                m = x * h
                if m & _U32 < h:  # Lemire's rejection zone
                    m, i, has, half = _lemire_redraw(bg, words, i, has, half, h, m)
                r = m >> 32
            if exact:
                bit = 1 << r
                mask |= bit if not mask & bit else 1 << (h - 1)
            else:
                mask ^= 1 << r
        if mask:  # only a binomial row can come out empty; it is redrawn
            rows.append(mask)
            left -= 1
    return rows, i, has, half


def _lemire_redraw(bg, words, i, has, half, h, m):
    # numpy's rejection loop: redraw while the low word is below 2^32 mod h;
    # words grows in place when the block runs out
    threshold = (1 << 32) % h
    while m & _U32 < threshold:
        if has:
            x, has = half, 0
        else:
            if i == len(words):
                words += bg.random_raw(16).tolist()
            w = words[i]
            i += 1
            x, half, has = w & _U32, w >> 32, 1
        m = x * h
    return m, i, has, half


def stream_rows(cfg: SampleConfig):
    """The rows of cfg.seed's stream, one at a time, drawn in blocks."""
    rng = make_rng(cfg.seed)
    block = min(_STREAM_BLOCK, cfg.n + 1)
    while True:
        yield from sample_rows(cfg, rng, block)


def sample_matrix(cfg: SampleConfig) -> GF2Matrix:
    """M(n, m) with i.i.d. rows, reproducible from cfg.seed."""
    rng = make_rng(cfg.seed)
    mat = GF2Matrix(cfg.n)
    for start in range(0, cfg.m, _MATRIX_BLOCK):
        for row in sample_rows(cfg, rng, min(_MATRIX_BLOCK, cfg.m - start)):
            mat.append_row(row)
    return mat


def run_Tn(cfg: SampleConfig) -> int:
    """First m at which the rows become linearly dependent over GF(2).

    Always at most n + 1, since n + 1 rows over n columns are dependent.  The
    configured m is ignored; rows are read from ``stream_rows`` and absorbed
    one at a time until one depends on the rows before it.  The rng is
    private, so drawing a block ahead of the dependency changes nothing.
    """
    state = RankState(cfg.n)
    for m, row in enumerate(stream_rows(cfg), 1):
        if state.absorb(row):
            return m
