from collections import Counter, deque

import numpy as np
import pytest

from gf2rank.gf2 import GF2Matrix
from gf2rank.peeling import CoreStats, Hypergraph
from gf2rank.weights import WeightDist


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_mixture(rs: np.random.Generator, min_weight: int = 3, max_weight: int = 40,
                   max_atoms: int = 3) -> WeightDist:
    """Deterministic pseudo-random weight mixture for property tests."""
    n_atoms = int(rs.integers(1, max_atoms + 1))
    ks = sorted(rs.choice(np.arange(min_weight, max_weight + 1), size=n_atoms,
                          replace=False).tolist())
    ps = rs.dirichlet(np.ones(n_atoms)).tolist()
    ps = [p / sum(ps) for p in ps]
    return WeightDist(tuple(zip(ks, ps)))


def mixture_batch(seed: int, count: int, **kwargs) -> list:
    rs = np.random.default_rng(seed)
    return [random_mixture(rs, **kwargs) for _ in range(count)]


def hypergraph(n, edges):
    """Hypergraph of the n-column matrix whose rows are edges, each already
    a sorted, duplicate-free sequence of columns: GF2Matrix.from_cols
    checks them and nothing sorts or dedupes them here."""
    return Hypergraph(GF2Matrix.from_cols(n, edges))


def naive_core(n, edges):
    """Reference peeler: rescan everything each round and delete the edge of
    the smallest degree-1 vertex, one at a time, unlike peel_2core's
    frontier rounds; also reports the aspect-ratio trajectory (rows / occupied
    columns) after every deletion."""
    alive = set(range(len(edges)))
    trajectory = []

    def occupied():
        occ = set()
        for i in alive:
            occ.update(edges[i])
        return occ

    while True:
        deg = {}
        for i in alive:
            for v in edges[i]:
                deg[v] = deg.get(v, 0) + 1
        lone = [v for v, d in deg.items() if d == 1]
        if not lone:
            return alive, trajectory
        v = min(lone)
        victim = next(i for i in sorted(alive) if v in edges[i])
        alive.discard(victim)
        occ = occupied()
        if occ:
            trajectory.append(len(alive) / len(occ))


def core_record(n, edges, core_ids):
    """(CoreStats, degree of every vertex) of the edges core_ids, counted
    afresh; the histograms list their keys in ascending order."""
    degree = [0] * n
    for i in core_ids:
        for v in edges[i]:
            degree[v] += 1
    core_ids = tuple(sorted(core_ids))
    rows_by_weight = dict(sorted(Counter(len(edges[i]) for i in core_ids).items()))
    cols_by_degree = dict(sorted(Counter(d for d in degree if d).items()))
    return CoreStats(core_ids, rows_by_weight, cols_by_degree), degree


def fifo_core(n, edges):
    """Reference peeler for large n: delete one edge at a time, taking the
    pending degree-1 vertices first in, first out, in Python loops.  Each
    vertex keeps the XOR of its alive edge ids, which at degree 1 is its one
    alive edge.  Returns core_record of the surviving edges, after checking
    that the loop's own degrees agree with it."""
    degree = [0] * n
    edge_xor = [0] * n
    for i, e in enumerate(edges):
        for v in e:
            degree[v] += 1
            edge_xor[v] ^= i
    alive = [True] * len(edges)
    pending = deque(v for v in range(n) if degree[v] == 1)
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
    stats, counted = core_record(n, edges, [i for i in range(len(edges)) if alive[i]])
    assert counted == degree
    return stats, degree
