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
is the one elimination kernel of the package.  It peels with ``peel_2core``,
numbers the occupied core columns so that the lowest core degrees are
pivoted on first, and absorbs the core rows, as int bitmasks over those
positions, into a ``gf2.RankState`` until every occupied column holds a
pivot; the rows after that point are dependent.
``corank`` reads the corank from it, and the ``core`` experiment's
hypercycle check reads the core statistics and the corank from one call.
A ``RankState`` fed every row of the matrix is the independent route that
the tests compare it with.
"""

from __future__ import annotations

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


def peel_2core(h: Hypergraph) -> CoreStats:
    """Run the degree-1 deletion process to termination and report the core.

    Each round deletes the alive edge of every degree-1 vertex, then lowers
    the degrees and edge-id XORs of the vertices those edges touch; the
    touched vertices left at degree 1 are the next round's frontier.  The
    hypergraph is consumed (``vertex_degree`` holds the terminal degrees
    afterwards).
    """
    degree = h.vertex_degree
    edge_xor = h._edge_xor
    cols, start, size = h._cols, h._row_start, h._size
    alive = np.ones(size.size, dtype=bool)

    frontier = (degree == 1).nonzero()[0]
    while frontier.size:
        ids = edge_xor[frontier]
        ids.sort()
        dead = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]  # each edge once
        alive[dead] = False
        k = size[dead]
        # the incidences of the dead edges: edge j's run of k[j] slots from start[j]
        ends = k.cumsum()
        touched = cols[(start[dead] + k - ends).repeat(k) + np.arange(ends[-1])]
        np.subtract.at(degree, touched, 1)
        np.bitwise_xor.at(edge_xor, touched, dead.repeat(k))
        frontier = touched[degree[touched] == 1]

    core_ids = alive.nonzero()[0]
    return CoreStats(tuple(core_ids.tolist()), _histogram(size[core_ids]),
                     _histogram(degree[degree > 0]))


def eliminate_core(h: Hypergraph) -> Tuple[CoreStats, int]:
    """Peel h to its 2-core and return (stats, corank of h's edges).

    Only occupied columns get a position, so core rows stay short.  Positions
    go in descending core degree, ties in column order, so the columns of
    lowest core degree hold the highest bits and become the first pivots
    (``RankState`` pivots on the highest bit).  Once every occupied column
    holds a pivot the rank is full, and each remaining core row counts as
    dependent without being reduced.  The hypergraph is consumed, as by
    ``peel_2core``.  The bits of the core rows, core rows x occupied
    columns, are checked against the "core elimination" work budget after
    the peel and before the first absorb.
    """
    stats = peel_2core(h)
    degree = h.vertex_degree
    occupied = degree.nonzero()[0]
    check_work("core elimination", stats.core_rows * occupied.size)
    order = occupied[np.argsort(-degree[occupied], kind="stable")]
    pos = np.zeros(h.n_vertices, dtype=np.intp)
    pos[order] = np.arange(order.size)
    at = pos[h._cols].tolist()  # the position of every incidence, in edge order
    start = h._row_start.tolist()
    full_rank = order.size
    state = RankState(full_rank)
    for absorbed, i in enumerate(stats.core_edge_ids):
        if absorbed - state.corank == full_rank:
            return stats, state.corank + stats.core_rows - absorbed
        row = 0
        for p in at[start[i]:start[i + 1]]:
            row |= 1 << p
        state.absorb(row)
    return stats, state.corank


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

