"""Samplers for the random matrix model: i.i.d. rows, uniform support given weight.

RNG contract: streams come from numpy's PCG64 (a named, versioned 64-bit
generator).  A config with the same seed always reproduces the same matrix,
and per-trial streams are derived by ``derive_stream_seed``, which hashes the
(seed, trial_index) pair through SeedSequence, so that parallel and serial
harness runs see identical randomness.

``sample_row`` defines the stream: one ``random()`` for the weight, then one
bounded ``integers`` draw per Floyd step (exact model) or per ball (binomial
model), and a binomial throw that leaves every urn even is redrawn.
``sample_matrix`` and ``sample_rows`` (behind ``run_Tn`` and the
classical-limit trials) take the block route.  It draws one
``BitGenerator.random_raw`` block and decodes it with array operations the
way numpy's ``Generator`` consumes PCG64 words: ``random()`` takes the top 53 bits of a fresh word, and
``integers(0, h)`` is Lemire's bounded draw ``(x * h) >> 32`` on a 32-bit
half-word x, low half first, with the high half kept in the generator's
``has_uint32``/``uinteger`` buffer.  A bound h = 1 gives 0 and takes no
half-word.

The decoder works on attempts: a weight and its draws, which give a row
unless they are an empty binomial throw.  An attempt takes 2 + d half-word
places, where d counts its draws with h > 1: min(k, n) - [k >= n] in the
exact model, whose first Floyd step has h = 1 for a weight k >= n, and
k [n > 1] in the binomial one.  The attempt's cursor c = 2 p - b (p the word
of its weight, b = 1 when a half-word is buffered) moves by 2 + d, so a
one-atom law has the cursors in closed form and a mixture walks them once
over the weights read off the block.  Attempts of one weight are then
decoded together into one 2-D array of columns: Lemire's products, column
0 for a bound h = 1, then Floyd's step (a draw already taken gives column
h - 1) or one column per ball, sorted within each attempt.  From that array
each attempt becomes its run of one flat column array at the attempt's
offset: CSR, the one form the decoder writes, and the parts join into one
``GF2Matrix``.  ``sample_matrix`` returns that matrix, and ``sample_rows``
its ``rows``, the one place a decoded row becomes an int mask, for
``run_Tn`` and the classical-limit trials to absorb.  A binomial row keeps
the urns hit an odd number of times, and an empty throw yields no row.
Only a Lemire rejection (a low word below 2^32 mod h) ends the decoded
prefix: the generator is set to that attempt's start, ``sample_row`` draws
the row, its columns join the CSR parts, and the decoding resumes.  So
``sample_matrix`` and ``sample_rows`` give the rows that successive
``sample_row`` calls would and leave the generator where they would, and
the seed -> matrix map is unchanged; ``sample_row`` stays as their test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, check_work
from .gf2 import GF2Matrix, RankState, row_cols
from .weights import MODELS, WeightDist

_U32 = 0xFFFFFFFF
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53, as numpy's random() scales 53 bits
# attempts per decoded block, and rows per stream_rows block: 1024 beat 256
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
        if self.seed < 0:
            raise InvalidParam(f"seed {self.seed} < 0")
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
    """The rows of ``count`` successive ``sample_row(cfg, rng)`` calls, as
    int bitmasks: the ``rows`` of ``_draw``'s matrix.  ``rng`` is left
    exactly where those calls would leave it, buffered half-word included.
    """
    return _draw(cfg, rng, count).rows


def _draw(cfg: SampleConfig, rng, count: int) -> GF2Matrix:
    """The matrix of ``count`` successive ``sample_row(cfg, rng)`` calls,
    joined from CSR parts: each the rows of a block of at most ``_BLOCK``
    attempts, decoded as numpy's Generator would (see the module
    docstring), or one row that ``sample_row`` draws itself.  That is an
    attempt with a Lemire rejection, and every row for generators other
    than PCG64 and for n above 2^32 - 1, where numpy leaves the 32-bit
    draw.  ``rng`` is left where those calls would leave it."""
    flats, sizes = [np.zeros(0, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]

    def one():
        cols = row_cols(sample_row(cfg, rng))
        flats.append(np.array(cols, dtype=np.intp))
        sizes.append(np.array([len(cols)], dtype=np.intp))

    bg = rng.bit_generator
    blocks = type(bg) is np.random.PCG64 and cfg.n <= _U32
    while count:
        if blocks:
            start = bg.state
            flat, size, used, has, half = _decode_block(cfg, bg, min(count, _BLOCK), start["has_uint32"],
                                                        start["uinteger"])
            flats.append(flat)
            sizes.append(size)
            count -= len(size)
            bg.state = start  # back to the start of the block, then over the words used
            bg.advance(used)
            state = bg.state
            state["has_uint32"], state["uinteger"] = has, half
            bg.state = state
            if used:
                continue
        one()  # a Lemire rejection at the block's first attempt, or no blocks for this bg or n
        count -= 1
    return GF2Matrix.from_csr(cfg.n, np.concatenate(flats), np.concatenate(sizes).cumsum())


def _decode_block(cfg: SampleConfig, bg, count: int, has: int, half: int):
    """(col_index, sizes, words used, has, half) of at most ``count``
    attempts decoded from one block of bg's raw words, up to the first one
    with a Lemire rejection, where (col_index, sizes) are ``_csr``'s rows
    of those attempts and (has, half) is numpy's buffered half-word before
    and after.  No word is used when the first attempt has a rejection."""
    words, c, k = _place_rows(cfg, bg, count, has)
    # half-word 0 is the one buffered at the block's start; word w holds
    # half-words 2w + 1 (low) and 2w + 2 (high)
    halves = np.concatenate((np.array([half], np.uint32), words.astype("<u8", copy=False).view("<u4")))
    parts = []
    bad = np.zeros(len(c), dtype=bool)
    for kk, _ in cfg.dist.atoms:
        sel = np.flatnonzero(k == kk)
        if len(sel):
            cols, bad[sel] = _cols_of_weight(cfg, kk, c[sel], halves)
            parts.append((sel, cols))
    f = int(np.argmax(bad)) if bad.any() else len(c)
    if f == 0:
        return (*_csr(cfg, 0, []), 0, has, half)
    c, d = c[:f], _draws(cfg, k[:f])
    end = int(c[-1] + 2 + d[-1])  # the cursor after the last attempt
    used = (end + 1) >> 1
    split = np.flatnonzero(d > (c & 1))  # attempts that split a fresh word
    if len(split):
        last = int(c[split[-1]] + 2 + d[split[-1]])  # the last half-word such an attempt draws
        half = int(halves[last + (last & 1)])
    decoded = []
    for sel, cols in parts:
        t = int(np.searchsorted(sel, f))
        decoded.append((sel[:t], cols[:t]))
    return (*_csr(cfg, f, decoded), used, 2 * used - end, half)


def _draws(cfg: SampleConfig, k):
    """The half-words a weight-k attempt draws: one per bound h > 1.  An
    exact-model k >= n starts Floyd's steps at h = 1, and every binomial
    ball has h = n."""
    n = cfg.n
    if cfg.model == "exact":
        return np.minimum(k, n) - (k >= n)
    return k * (n > 1)


def _place_rows(cfg: SampleConfig, bg, count: int, has: int):
    """(words, c, k): one block of raw words and the cursor and weight of at
    most ``count`` attempts that fit in it.  The weight word takes 2
    half-word places and the d draws d more, so the cursor moves by d + 2 an
    attempt.  At n = 1 no attempt draws, so a buffered half-word stays put
    and is never read."""
    dist = cfg.dist
    ks = np.array([k for k, _ in dist.atoms])
    steps = 2 + _draws(cfg, ks)
    if len(ks) == 1:
        step = int(steps[0])
        return bg.random_raw((step * count - has + 1) >> 1), step * np.arange(count) - has, np.full(count, ks[0])
    mean = sum(float(p) * s for (_, p), s in zip(dist.atoms, steps))
    spread = sum(float(p) * (s - mean) ** 2 for (_, p), s in zip(dist.atoms, steps)) ** 0.5
    words = bg.random_raw(int(count * mean / 2 + 2 * spread * count ** 0.5) + int(steps[-1]))
    weight = np.append(dist.weight_at((words >> 11) * _DOUBLE_UNIT), 0)
    # the next cursor from each cursor -1 .. 2N; -1 where the attempt does
    # not fit in the block
    cur = np.arange(-1, 2 * len(words) + 1)
    p = (cur + 1) >> 1
    nxt = cur + 2 + _draws(cfg, weight[p])
    nxt[(p == len(words)) | (nxt > 2 * len(words))] = -1
    nxt = nxt.tolist()
    cs, c = [], -has
    for _ in range(count):
        if nxt[c + 1] < 0:
            break
        cs.append(c)
        c = nxt[c + 1]
    cs = np.asarray(cs, np.int64)
    return words, cs, weight[(cs + 1) >> 1]


def _cols_of_weight(cfg: SampleConfig, k: int, c, halves):
    """(cols, bad) of the weight-k attempts at cursors c: each row of cols
    holds one attempt's columns in ascending order, from Lemire's product
    x h of each draw with h > 1, then Floyd's step (exact model) or one
    column per ball (binomial).  A bound h = 1 gives column 0 and draws
    nothing; bad marks a Lemire rejection."""
    n, exact = cfg.n, cfg.model == "exact"
    if exact:
        k = min(k, n)
        h = np.arange(n - k + 1, n + 1, dtype=np.uint64)
    else:
        h = np.full(k, n, dtype=np.uint64)
    h = h[h > 1]  # h = 1 comes first (exact k >= n) or everywhere (binomial n = 1)
    cols = np.zeros((len(c), k), dtype=np.uint64)
    bad = np.zeros(len(c), dtype=bool)
    if len(h):
        idx = c[:, None] + 3 + np.arange(len(h))
        idx[:, 0] -= 2 * (c & 1)  # a buffered first draw takes half-word c + 1
        prod = halves[idx].astype(np.uint64) * h
        bad = ((prod & _U32) < (1 << 32) % h).any(axis=1)
        cols[:, k - len(h):] = prod >> 32
    s = np.sort(cols, axis=1)
    if exact:
        # Floyd's step takes column h - 1 where the draw is already taken,
        # which can first happen only where two draws are equal
        clash = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        sub = cols[clash]
        for t in range(1, k):
            sub[(sub[:, :t] == sub[:, t, None]).any(axis=1), t] = n - k + t
        s[clash] = np.sort(sub, axis=1)
    return s, bad


def _csr(cfg: SampleConfig, f: int, parts) -> tuple:
    """(col_index, sizes) of f attempts, from the ascending columns cols of
    the attempts sel of each weight: the rows' columns in one flat array,
    attempt after attempt, and each row's column count.  This is the one
    form the decoder writes.  A row holds every column of an exact-model
    attempt, whose columns are distinct, and each urn a binomial throw hits
    an odd number of times, once; an empty throw yields no row."""
    size = np.zeros(f, dtype=np.intp)
    keeps = []
    for sel, cols in parts:
        keep = None if cfg.model == "exact" else _odd_urns(cols)
        size[sel] = cols.shape[1] if keep is None else keep.sum(axis=1)
        keeps.append(keep)
    start = size.cumsum() - size
    flat = np.empty(int(size.sum()), dtype=np.intp)
    for (sel, cols), keep in zip(parts, keeps):
        if keep is None:
            flat[start[sel, None] + np.arange(cols.shape[1])] = cols
        else:
            flat[(start[sel, None] + keep.cumsum(axis=1) - 1)[keep]] = cols[keep]
    return flat, size[size > 0]


def _odd_urns(cols):
    """Where each row of ascending urns cols holds an urn hit an odd number
    of times, marked at its first ball.  A run of equal urns starts at each
    row's first ball and wherever the urn changes, and ends where the next
    run starts, so no run crosses a row."""
    first = np.ones(cols.shape, dtype=bool)
    first[:, 1:] = cols[:, 1:] != cols[:, :-1]
    at = np.flatnonzero(first)
    keep = np.zeros(cols.shape, dtype=bool)
    keep.ravel()[at] = np.diff(at, append=first.size) & 1
    return keep


def stream_rows(cfg: SampleConfig):
    """The rows of cfg.seed's stream, one at a time, drawn in blocks."""
    rng = make_rng(cfg.seed)
    block = min(_BLOCK, cfg.n + 1)
    while True:
        yield from sample_rows(cfg, rng, block)


def _check_rows(cfg: SampleConfig, m: int) -> None:
    """Check m rows of cfg against the "matrix" work budget: n columns, m
    rows and at most m min(W, n) entries in the exact model or m W balls in
    the binomial one, for the largest weight W."""
    w = cfg.dist.atoms[-1][0]
    check_work("matrix", cfg.n + m * (1 + (min(w, cfg.n) if cfg.model == "exact" else w)))


def check_Tn(cfg: SampleConfig) -> None:
    """Check a T_n trial of cfg against the work budget before it starts:
    the (n+1)^2 bits of its basis and the rows it can draw, n + 1 of them."""
    check_work("T_n trial", (cfg.n + 1) ** 2)
    _check_rows(cfg, cfg.n + 1)


def sample_matrix(cfg: SampleConfig) -> GF2Matrix:
    """M(n, m) with i.i.d. rows, reproducible from cfg.seed."""
    _check_rows(cfg, cfg.m)
    return _draw(cfg, make_rng(cfg.seed), cfg.m)


def run_Tn(cfg: SampleConfig) -> int:
    """First m at which the rows become linearly dependent over GF(2).

    Always at most n + 1, since n + 1 rows over n columns are dependent.  The
    configured m is ignored; rows are read from ``stream_rows`` and absorbed
    one at a time until one depends on the rows before it.  The rng is
    private, so drawing a block ahead of the dependency changes nothing.
    """
    check_Tn(cfg)
    state = RankState(cfg.n)
    for m, row in enumerate(stream_rows(cfg), 1):
        if state.absorb(row):
            return m
