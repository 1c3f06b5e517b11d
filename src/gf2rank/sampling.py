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
``BitGenerator.random_raw`` block and decodes it with array operations the
way numpy's ``Generator`` consumes PCG64 words: ``random()`` takes the top
53 bits of a fresh word, and ``integers(0, h)`` is Lemire's bounded draw
``(x * h) >> 32`` on a 32-bit half-word x, low half first, with the high
half kept in the generator's ``has_uint32``/``uinteger`` buffer.

The decoder places the rows first.  A row's cursor c = 2 p - b (p the word
of its weight, b = 1 when a half-word is buffered) moves by k + 2 for a
weight-k row, so a one-atom law has the cursors in closed form and a mixture
walks them once over the weights read off the block.  Rows of one weight
are then decoded together: Lemire's products, Floyd's step (a draw already
taken gives column h - 1) or the odd urns, and one int mask per row.  The
first row it cannot take -- a draw with low word below h, which covers
Lemire's rejection zone, a bound h = 1 (weight k >= n in the exact model,
n = 1 in the binomial one) or an empty binomial throw -- ends the decoded
prefix; the generator is set to that row's start, ``sample_row`` draws it,
and the decoding resumes.  So ``sample_rows`` returns the rows that
successive ``sample_row`` calls would and leaves the generator where they
would, and the seed -> matrix map is unchanged; ``sample_row`` stays as its
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam
from .gf2 import GF2Matrix, RankState
from .weights import WeightDist

MODELS = ("exact", "binomial")

_U32 = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53, as numpy's random() scales 53 bits
# rows per sample_rows call in sample_matrix and stream_rows: 1024 beat 256
# and 512 on the mc-tn benchmark workload and 4096 on mc-core
_BLOCK = 1024


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

    Decodes ``random_raw`` blocks as numpy's Generator would (see the module
    docstring) and leaves ``rng`` exactly where those calls would leave it,
    buffered half-word included.  A row that the block decoder cannot take is
    drawn by ``sample_row`` itself.  Generators other than PCG64 take the
    scalar route, as does n above 2^32 - 1, where numpy leaves the 32-bit
    draw, and a config whose every row starts with a bound h = 1.
    """
    bg = rng.bit_generator
    exact = cfg.model == "exact"
    if (type(bg) is not np.random.PCG64 or cfg.n > _U32
            or (cfg.dist.min_weight >= cfg.n if exact else cfg.n == 1)):
        return [sample_row(cfg, rng) for _ in range(count)]
    rows = []
    while len(rows) < count:
        start = bg.state
        got, used, has, half, stuck = _decode_block(cfg, bg, count - len(rows),
                                                    start["has_uint32"], start["uinteger"])
        rows += got
        bg.state = start  # back to the start of the block, then over the words used
        bg.advance(used)
        state = bg.state
        state["has_uint32"], state["uinteger"] = has, half
        bg.state = state
        if stuck:
            rows.append(sample_row(cfg, rng))
    return rows


def _decode_block(cfg: SampleConfig, bg, count: int, has: int, half: int):
    """(rows, words used, has, half, stuck) for at most ``count`` rows decoded
    from one block of bg's raw words, where (has, half) is numpy's buffered
    half-word before and after.  stuck says that the next row is one the
    decoder cannot take (see the module docstring)."""
    n, exact = cfg.n, cfg.model == "exact"
    words, c, k, stuck = _place_rows(cfg, bg, count, has)
    # half-word 0 is the one buffered at the block's start; word w holds
    # half-words 2w + 1 (low) and 2w + 2 (high)
    halves = np.concatenate((np.array([half], np.uint32), words.astype("<u8", copy=False).view("<u4")))
    masks = np.empty(len(c), dtype=object)
    bad = np.zeros(len(c), dtype=bool)
    for kk, _ in cfg.dist.atoms:
        sel = np.flatnonzero(k == kk)
        if len(sel):
            masks[sel], bad[sel] = _rows_of_weight(n, kk, exact, c[sel], halves)
    f = int(np.argmax(bad)) if bad.any() else len(c)
    if f == 0:
        return [], 0, has, half, True
    ends = c[:f] + 2 + k[:f]  # the cursor after each row
    used = int(ends[-1] + 1) >> 1
    split = np.flatnonzero(k[:f] > (c[:f] & 1))  # rows that split a fresh word
    if len(split):
        last = int(ends[split[-1]])  # the last half-word such a row draws
        half = int(halves[last + (last & 1)])
    return masks[:f].tolist(), used, 2 * used - int(ends[-1]), half, stuck or f < len(c)


def _place_rows(cfg: SampleConfig, bg, count: int, has: int):
    """(words, c, k, stuck): one block of raw words and the cursor and weight
    of at most ``count`` rows that fit in it.  The weight word takes 2
    half-word places and the k draws k more, so the cursor moves by k + 2 a
    row.  stuck says that the row after the last one has a bound h = 1."""
    n, dist, exact = cfg.n, cfg.dist, cfg.model == "exact"
    ks = [k for k, _ in dist.atoms]
    if len(ks) == 1:
        step = ks[0] + 2
        return (bg.random_raw((step * count - has + 1) >> 1), step * np.arange(count) - has,
                np.full(count, ks[0]), False)
    mean = float(dist.mean())
    spread = sum(float(p) * (k - mean) ** 2 for k, p in dist.atoms) ** 0.5
    words = bg.random_raw(int(count * (1 + mean / 2) + 2 * spread * count ** 0.5) + ks[-1])
    at = np.searchsorted(dist._cum, (words >> 11) * _DOUBLE_UNIT)  # dist.weight_at, word by word
    weight = np.append(np.asarray(ks)[np.minimum(at, len(ks) - 1)], 0)
    # the next cursor from each cursor -1 .. 2N; -1 where the row does not
    # fit in the block, -2 where it has h = 1
    cur = np.arange(-1, 2 * len(words) + 1)
    p = (cur + 1) >> 1
    nxt = cur + 2 + weight[p]
    nxt[(p == len(words)) | (nxt > 2 * len(words))] = -1
    if exact:
        nxt[(weight[p] >= n) & (p < len(words))] = -2
    nxt = nxt.tolist()
    cs, c = [], -has
    for _ in range(count):
        if nxt[c + 1] < 0:
            break
        cs.append(c)
        c = nxt[c + 1]
    cs = np.asarray(cs, np.int64)
    return words, cs, weight[(cs + 1) >> 1], len(cs) < count and nxt[c + 1] == -2


def _rows_of_weight(n: int, k: int, exact: bool, c, halves):
    """(masks, bad) of the weight-k rows at cursors c: Lemire's product x h of
    each draw, then Floyd's step (exact model) or the odd urns (binomial)."""
    j = np.arange(k)
    idx = c[:, None] + 3 + j
    idx[:, 0] -= 2 * (c & 1)  # a buffered first draw takes half-word c + 1
    h = np.asarray(n - k + 1 + j if exact else np.full(k, n), dtype=np.uint64)
    prod = halves[idx].astype(np.uint64) * h
    bad = ((prod & _U32) < h).any(axis=1)
    cols = prod >> 32
    if exact:
        # Floyd's step takes column h - 1 where the draw is already taken,
        # which can first happen only where two draws are equal
        s = np.sort(cols, axis=1)
        clash = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        sub = cols[clash]
        for t in range(1, k):
            sub[(sub[:, :t] == sub[:, t, None]).any(axis=1), t] = n - k + t
        cols[clash] = sub
    # the exact model's columns are distinct, so xor sets them as or would;
    # the binomial model keeps the urns hit an odd number of times
    masks = np.zeros(len(c), dtype=object)
    for t in range(k):
        masks ^= 1 << cols[:, t].astype(object)
    return masks, bad | (masks == 0)


def stream_rows(cfg: SampleConfig):
    """The rows of cfg.seed's stream, one at a time, drawn in blocks."""
    rng = make_rng(cfg.seed)
    block = min(_BLOCK, cfg.n + 1)
    while True:
        yield from sample_rows(cfg, rng, block)


def sample_matrix(cfg: SampleConfig) -> GF2Matrix:
    """M(n, m) with i.i.d. rows, reproducible from cfg.seed."""
    rng = make_rng(cfg.seed)
    mat = GF2Matrix(cfg.n)
    for start in range(0, cfg.m, _BLOCK):
        for row in sample_rows(cfg, rng, min(_BLOCK, cfg.m - start)):
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
