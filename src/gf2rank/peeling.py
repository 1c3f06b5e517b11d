"""Hypergraph view of a GF(2) matrix, its 2-core, and the elimination kernel.

Rows are hyperedges, columns are vertices.  ``Hypergraph`` takes a
``GF2Matrix``, whose constructor has checked each row to be sorted,
duplicate-free and in range, and reads the matrix's CSR arrays as its
incidence arrays, with no copy, no bit scan and no second check.  The 2-core is
the terminal state of repeatedly deleting a hyperedge incident to a degree-1
vertex.  The result does not depend on the deletion order, so
``peel_2core`` deletes in frontier rounds of array operations:
round-parallel peeling ends at the same 2-core (Jiang, Mitzenmacher &
Thaler, "Parallel peeling algorithms", SPAA 2014), and the tests check it
against a first-in, first-out loop and a rescanning peeler.  Columns are
never deleted, so "occupied" counts the columns that still meet an alive
edge at termination.  ``CoreStats`` holds the core's edge ids, its rows by
weight and its occupied columns by degree; the row, occupied-column and
incidence totals are derived from them.

A deleted row has a column that no row left at that point touches, so it
lies in no null combination: corank(M) = corank(2-core).  ``eliminate_core``
is the one elimination kernel of the package: structured Gaussian
elimination in its inactivation-decoding form (LaMacchia & Odlyzko, CRYPTO
1990; Shokrollahi, "Raptor codes", IEEE Trans. Inf. Theory 2006).  It peels
with ``peel_2core`` and then peels the core on in numpy rounds, setting
rows aside where no column has degree 1.  A replay of the rounds writes
each core row's coefficient in a left null vector as a mask over the
set-aside rows S, in packed ``uint64`` words, and the corank is |S| minus
the rank of the small dense system that the other columns ask of those
masks.  ``corank`` reads the corank from it, and the ``core`` experiment
reads the core statistics, the corank and |S| from one call.  A
``RankState`` fed every row of the matrix is the independent route that
the tests compare it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidParam, check_work
from .gf2 import GF2Matrix, RankState


class Hypergraph:
    """The hypergraph of a ``GF2Matrix``: incidence arrays with per-vertex
    degrees, mutable only by peeling.

    ``n_vertices`` is the matrix's column count.  The peel reads the
    matrix's CSR arrays in place, with no copy: ``_cols`` lists every edge's
    vertices in edge order, and edge i owns its ``_size[i]`` entries from
    ``_row_start[i]``.  ``edges`` holds each row as
    the sorted tuple of its vertices; it is derived on its first read and
    kept.  ``vertex_degree`` counts each vertex's alive edges.  Each vertex
    keeps the XOR of the ids of its alive incident edges in place of an
    incidence list: at degree 1 that XOR is the one alive edge.
    ``from_matrix`` is another name for the constructor.
    """

    __slots__ = ("n_vertices", "vertex_degree", "_matrix", "_edges", "_edge_xor", "_cols",
                 "_row_start", "_size")

    def __init__(self, matrix: GF2Matrix):
        self.n_vertices = n = matrix.n_cols
        self._matrix, self._edges = matrix, None
        self._cols = cols = matrix.col_index
        self._row_start = matrix.row_start
        self._size = size = np.diff(matrix.row_start)
        self.vertex_degree = np.bincount(cols, minlength=n)
        self._edge_xor = np.zeros(n, dtype=np.intp)
        np.bitwise_xor.at(self._edge_xor, cols, np.arange(size.size).repeat(size))

    @property
    def edges(self) -> list:
        if self._edges is None:
            self._edges = self._matrix.cols
        return self._edges

    @classmethod
    def from_matrix(cls, matrix: GF2Matrix) -> "Hypergraph":
        return cls(matrix)


@dataclass(frozen=True)
class CoreStats:
    """Terminal statistics of the peeling process; the totals are derived.

    ``rows_by_weight`` maps a row weight to the number of core rows of that
    weight, and ``cols_by_degree`` a core degree to the number of occupied
    columns of that degree; both list their keys in ascending order.
    """

    core_edge_ids: tuple
    rows_by_weight: dict
    cols_by_degree: dict

    @property
    def core_rows(self) -> int:
        return len(self.core_edge_ids)

    @property
    def occupied_cols(self) -> int:
        return sum(self.cols_by_degree.values())

    @property
    def incidences(self) -> int:
        return sum(k * v for k, v in self.rows_by_weight.items())


def _histogram(values: np.ndarray) -> dict:
    """{value: count} for each value present, keys ascending."""
    counts = np.bincount(values)
    keys = counts.nonzero()[0]
    return dict(zip(keys.tolist(), counts[keys].tolist()))


def _runs(start: np.ndarray, size: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices of the runs of ids, run i of size[i] slots from start[i], one
    after another in the order of ids; ids is not empty."""
    k = size[ids]
    ends = k.cumsum()
    runs = (start[ids] + k - ends).repeat(k)
    runs += np.arange(ends[-1])
    return runs


def _delete(h: Hypergraph, alive: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Delete the alive edges dead, each listed once: lower the degrees and
    edge-id XORs of their vertices, and return those vertices."""
    touched = h._cols[_runs(h._row_start, h._size, dead)]
    np.subtract.at(h.vertex_degree, touched, 1)
    np.bitwise_xor.at(h._edge_xor, touched, dead.repeat(h._size[dead]))
    alive[dead] = False
    return touched


def _peel(h: Hypergraph, alive: np.ndarray, frontier: np.ndarray, owner: np.ndarray,
          rounds=None) -> None:
    """Peel from the degree-1 vertices in frontier to termination.

    Each round deletes the alive edge of every frontier vertex.  An edge that
    several of them meet, or a vertex listed twice, is taken once: each
    frontier entry writes its position into ``owner`` at its edge, and the
    one position read back keeps the edge and gives it its pivot vertex.
    The touched vertices left at degree 1 are the next frontier.  If rounds
    is a list, each round appends (pivot vertices, their edges) to it.
    """
    degree, edge_xor = h.vertex_degree, h._edge_xor
    while frontier.size:
        ids = edge_xor[frontier]
        pos = np.arange(frontier.size)
        owner[ids] = pos
        first = owner[ids] == pos
        frontier, ids = frontier[first], ids[first]
        if rounds is not None:
            rounds.append((frontier, ids))
        touched = _delete(h, alive, ids)
        frontier = touched[degree[touched] == 1]


def _peel_2core(h: Hypergraph) -> Tuple[CoreStats, np.ndarray, np.ndarray]:
    """``peel_2core``, also returning which edges are alive and the owner
    array of the peel, for ``eliminate_core`` to peel on with."""
    alive = np.ones(h._size.size, dtype=bool)
    owner = np.empty(h._size.size, dtype=np.intp)
    degree = h.vertex_degree
    _peel(h, alive, (degree == 1).nonzero()[0], owner)
    core_ids = alive.nonzero()[0]
    return CoreStats(tuple(core_ids.tolist()), _histogram(h._size[core_ids]),
                     _histogram(degree[degree > 0])), alive, owner


def peel_2core(h: Hypergraph) -> CoreStats:
    """Run the degree-1 deletion process to termination and report the core.

    Each round deletes the alive edge of every degree-1 vertex, then lowers
    the degrees and edge-id XORs of the vertices those edges touch; the
    touched vertices left at degree 1 are the next round's frontier.  The
    hypergraph is consumed (``vertex_degree`` holds the terminal degrees
    afterwards).
    """
    return _peel_2core(h)[0]


# Each set-aside round takes this share of the live core columns, least live
# degree first.  Chosen by measurement on r=3 and FIG1 cores at n = 10^4 and
# 10^5: a larger share sets aside more rows, and the dense step grows with
# them; a smaller one adds rounds, each a fixed cost.
_SET_ASIDE_SHARE = 0.02


def eliminate_core(h: Hypergraph) -> Tuple[CoreStats, int, int]:
    """Peel h to its 2-core and return (stats, corank of h's edges, |S|).

    The core is peeled on by ``_peel``, which records each round's pivots.
    Where no column has degree 1, a round sets rows aside at the
    least-degree ``_SET_ASIDE_SHARE`` of the live columns: each live row on
    them goes to the last of them it meets, each of them keeps the first
    row it got and sets aside the rest, and the peel goes on from the
    columns left at degree 1.  The zero rows of the core are set aside at
    the end.

    The set-aside rows S are the free coordinates of a left null vector y
    of the core.  A peeled row's pivot column meets no row peeled after it,
    so its y is the XOR of those of the other rows on that column.  The
    replay of the peel rounds gives each peeled row its y as an |S|-bit
    mask; a set-aside row's is its own bit.  Every occupied column that is
    no pivot asks that the masks of its rows XOR to zero, and the corank is
    |S| minus the rank of those constraints (``_packed_rank``).  The
    hypergraph is consumed, as by ``peel_2core``.

    The peeled rows' masks and the constraints share one table of |S|-bit
    rows, one per occupied column.  The "core elimination" work budget is
    checked after the peel, on core rows x occupied columns, which bounds
    that table, and again before it is allocated, on core rows x |S|.
    Each set-aside row's bit is scattered into the rows of the columns it
    meets, and the peeled rows on a column are gathered, for runs of
    columns of at most R core rows in all: no temporary outgrows R x |S|
    bits, and a set-aside row costs one bit, not |S|, where it meets a
    column.
    """
    stats, alive, owner = _peel_2core(h)
    degree = h.vertex_degree
    n_core = stats.core_rows
    check_work("core elimination", n_core * np.count_nonzero(degree))
    # each occupied column's core rows in edge order, from col_start: one
    # sort of the distinct keys column x m + row.  They stay below
    # n_vertices x m, inside int64 for any matrix that fits in memory.
    # col_deg keeps the core degrees while the peel below lowers
    # vertex_degree.
    m = alive.size
    col_deg = degree.copy()
    col_start = np.concatenate(([0], col_deg.cumsum()))
    core = alive.nonzero()[0]
    col_rows = h._cols[alive.repeat(h._size)] * m
    col_rows += core.repeat(h._size[core])
    col_rows.sort()
    col_rows %= m

    rounds, aside = [], []  # (pivots, their rows) of each peel round; set-aside rows
    live = col_deg.nonzero()[0]
    while True:
        live = live[degree[live] > 0]
        if not live.size:
            break
        k = math.ceil(live.size * _SET_ASIDE_SHARE)
        chosen = live[np.argpartition(degree[live], k - 1)[:k]]
        on = col_rows[_runs(col_start, col_deg, chosen)]
        group = np.arange(k).repeat(col_deg[chosen])
        keep = alive[on]
        on, group = on[keep], group[keep]
        owner[on] = -1
        np.maximum.at(owner, on, group)
        mine = owner[on] == group
        on, group = on[mine], group[mine]
        rows = on[np.concatenate(([False], group[1:] == group[:-1]))]
        aside.append(rows)
        touched = _delete(h, alive, rows)
        _peel(h, alive, touched[degree[touched] == 1], owner, rounds)
    aside.append(alive.nonzero()[0])  # the zero rows, on no column
    aside = np.concatenate(aside)

    check_work("core elimination", n_core * aside.size)
    # The table has a row per peeled row, its mask, and then a row per
    # column that is no pivot, its constraint: dest is each column's row.
    pivots = np.concatenate([cols for cols, _ in rounds] + [aside[:0]])
    peeled = np.concatenate([rows for _, rows in rounds] + [aside[:0]])
    free = col_deg > 0
    free[pivots] = False
    free = free.nonzero()[0]
    dest = np.empty(col_deg.size, dtype=np.intp)
    dest[pivots] = np.arange(pivots.size)
    dest[free] = np.arange(pivots.size, pivots.size + free.size)
    words = -(-aside.size // 64)
    table = np.zeros((pivots.size + free.size, words), dtype="<u8")
    # a set-aside row's mask is its own bit: scatter it into the rows of the
    # columns it meets, for runs of columns of at most n_core rows in all
    is_aside = np.zeros(m, dtype=bool)
    is_aside[aside] = True
    bit = np.empty(m, dtype=np.intp)
    bit[aside] = np.arange(aside.size)
    lo = 0
    while lo < col_deg.size:
        hi = col_start.searchsorted(col_start[lo] + n_core, side="right") - 1
        rows = col_rows[col_start[lo]:col_start[hi]]
        at = np.arange(lo, hi).repeat(col_deg[lo:hi])
        a = is_aside[rows]
        b = bit[rows[a]]
        np.bitwise_xor.at(table.reshape(-1), dest[at[a]] * words + (b >> 6),
                          np.uint64(1) << (b & 63).astype(np.uint64))
        lo = hi
    # each column's peeled rows, as rows of the table
    place = np.empty(m, dtype=np.intp)
    place[peeled] = np.arange(peeled.size)
    a = ~is_aside[col_rows]
    p_start = np.concatenate(([0], a.cumsum()))[col_start]
    p_deg = np.diff(p_start)
    p_rows = place[col_rows[a]]

    def xor_peeled(cols):
        """One row per column of cols, each met by a peeled row: the XOR of
        the table rows of its peeled rows, gathered for runs of columns of
        at most n_core rows in all."""
        out = np.empty((cols.size, words), dtype="<u8")
        deg = p_deg[cols]
        ends = deg.cumsum()
        first = ends - deg
        lo = 0
        while lo < cols.size:
            hi = ends.searchsorted(first[lo] + n_core, side="right")
            rows = p_rows[_runs(p_start, p_deg, cols[lo:hi])]
            out[lo:hi] = np.bitwise_xor.reduceat(table[rows], first[lo:hi] - first[lo], axis=0)
            lo = hi
        return out

    # A pivot's peeled rows are its own, whose row holds its set-aside bits
    # so far, and rows peeled before it, whose masks are final.
    for cols, _ in rounds:
        table[dest[cols]] = xor_peeled(cols)
    met = free[p_deg[free] > 0]
    table[dest[met]] ^= xor_peeled(met)
    return stats, aside.size - _packed_rank(table[pivots.size:], aside.size), aside.size


def _packed_rank(rows: np.ndarray, n_bits: int) -> int:
    """GF(2) rank of rows packed as little-endian uint64 words, bit i of a
    row in word i // 64; each nonzero row enters a ``RankState`` as one int."""
    rows = rows[rows.any(axis=1)]
    state = RankState(n_bits)
    for row in rows:
        state.absorb(int.from_bytes(row.tobytes(), "little"))
    return len(rows) - state.corank


def corank(matrix: GF2Matrix) -> int:
    """sigma = m - rank over GF(2); the null-vector count is 2**sigma.

    Returned as the integer exponent (sigma can run into the thousands, so the
    count itself is never materialized as a float).  Computed on the 2-core,
    whose corank equals the matrix's.
    """
    return eliminate_core(Hypergraph(matrix))[1]


def check_E(stats: CoreStats, n: int, eps: float) -> bool:
    """Event E(n, m; eps): the core keeps at least eps*n rows and has strictly
    more rows than occupied columns."""
    if not eps > 0:
        raise InvalidParam(f"eps {eps} is not > 0")
    return stats.core_rows >= eps * n and stats.core_rows > stats.occupied_cols

