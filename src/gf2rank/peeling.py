"""Hypergraph view of a GF(2) matrix, its 2-core, and the elimination kernel.

Rows are hyperedges, columns are vertices: a ``GF2Matrix`` row is already its
sorted tuple of columns, so ``Hypergraph.from_matrix`` indexes the matrix's
``cols`` with no bit scan.  The 2-core is the terminal state of repeatedly
deleting a hyperedge incident to a degree-1 vertex; the result does not
depend on the deletion order, so ``peel_2core`` has one: first in, first out
over the pending degree-1 vertices.  Columns are never deleted, so
"occupied" counts the columns that still meet an alive edge at termination.
``CoreStats`` holds the core's edge ids, its rows by weight and its occupied
columns by degree; the row, occupied-column and incidence totals are derived
from them.

A deleted row has a column that no row left at that point touches, so it
lies in no null combination: corank(M) = corank(2-core).  ``eliminate_core``
is the one elimination kernel of the package.  It peels with ``peel_2core``,
numbers the occupied core columns so that the lowest core degrees are
pivoted on first, and absorbs the core rows, as int bitmasks over those
positions, into a ``gf2.RankState``.
``corank`` reads the corank from it, and the ``core`` experiment's
hypercycle check reads the core statistics and the corank from one call.
A ``RankState`` fed every row of the matrix is the independent route that
the tests compare it with.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import DimensionMismatch, InvalidParam
from .gf2 import GF2Matrix, RankState


class Hypergraph:
    """Incidence structure with per-vertex degrees, mutable only by peeling.

    Each vertex keeps the XOR of the ids of its alive incident edges in place
    of an incidence list: at degree 1 that XOR is the one alive edge.
    """

    __slots__ = ("n_vertices", "edges", "vertex_degree", "alive", "_edge_xor")

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]):
        checked = []
        for e in edges:
            te = tuple(sorted(set(e)))
            if te and (te[0] < 0 or te[-1] >= n_vertices):
                raise DimensionMismatch(f"edge {te} out of range for {n_vertices} vertices")
            checked.append(te)
        self._index(n_vertices, checked)

    def _index(self, n_vertices: int, edges: List[Tuple[int, ...]]) -> None:
        """Take edges that are sorted, duplicate-free tuples within range."""
        self.n_vertices = n_vertices
        self.edges = edges
        self.vertex_degree = [0] * n_vertices
        self._edge_xor = [0] * n_vertices
        for i, e in enumerate(edges):
            for v in e:
                self.vertex_degree[v] += 1
                self._edge_xor[v] ^= i
        self.alive = [True] * len(edges)

    @classmethod
    def from_matrix(cls, matrix: GF2Matrix) -> "Hypergraph":
        # a GF2Matrix row is already a sorted, duplicate-free tuple below n_cols
        h = cls.__new__(cls)
        h._index(matrix.n_cols, list(matrix.cols))
        return h


@dataclass(frozen=True)
class CoreStats:
    """Terminal statistics of the peeling process; the totals are derived."""

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


def peel_2core(h: Hypergraph) -> CoreStats:
    """Run the degree-1 deletion process to termination and report the core.

    Pending degree-1 vertices are processed first in, first out.  The
    terminal core does not depend on that order; the tests check it against
    a reference peeler that deletes in another order.  The hypergraph is
    consumed (degrees and alive flags reflect the terminal state afterwards).
    """
    degree = h.vertex_degree
    alive = h.alive
    edges = h.edges
    edge_xor = h._edge_xor

    pending = deque(v for v in range(h.n_vertices) if degree[v] == 1)

    while pending:
        v = pending.popleft()
        if degree[v] != 1:
            continue  # stale entry
        eid = edge_xor[v]
        alive[eid] = False
        for u in edges[eid]:
            degree[u] -= 1
            edge_xor[u] ^= eid
            if degree[u] == 1:
                pending.append(u)

    core_ids = tuple(i for i in range(len(edges)) if alive[i])
    rows_by_weight: dict = {}
    cols_by_degree: dict = {}
    for i in core_ids:
        w = len(edges[i])
        rows_by_weight[w] = rows_by_weight.get(w, 0) + 1
    for d in degree:
        if d:
            cols_by_degree[d] = cols_by_degree.get(d, 0) + 1
    return CoreStats(core_ids, rows_by_weight, cols_by_degree)


def eliminate_core(h: Hypergraph) -> Tuple[CoreStats, int]:
    """Peel h to its 2-core and return (stats, corank of h's edges).

    Only occupied columns get a position, so core rows stay short.  Positions
    go in descending core degree, so the columns of lowest core degree hold
    the highest bits and become the first pivots (``RankState`` pivots on the
    highest bit).  The hypergraph is consumed, as by ``peel_2core``.
    """
    stats = peel_2core(h)
    degree = h.vertex_degree
    occupied = sorted((v for v in range(h.n_vertices) if degree[v]), key=degree.__getitem__,
                      reverse=True)
    pos = [0] * h.n_vertices
    for i, v in enumerate(occupied):
        pos[v] = i
    state = RankState(len(occupied))
    edges = h.edges
    for i in stats.core_edge_ids:
        row = 0
        for v in edges[i]:
            row |= 1 << pos[v]
        state.absorb(row)
    return stats, state.corank


def corank(matrix: GF2Matrix) -> int:
    """sigma = m - rank over GF(2); the null-vector count is 2**sigma.

    Returned as the integer exponent (sigma can run into the thousands, so the
    count itself is never materialized as a float).  Computed on the 2-core,
    whose corank equals the matrix's.
    """
    return eliminate_core(Hypergraph.from_matrix(matrix))[1]


def check_E(stats: CoreStats, n: int, eps: float) -> bool:
    """Event E(n, m; eps): the core keeps at least eps*n rows and has strictly
    more rows than occupied columns."""
    if not eps > 0:
        raise InvalidParam(f"eps {eps} is not > 0")
    return stats.core_rows >= eps * n and stats.core_rows > stats.occupied_cols

