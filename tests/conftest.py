import numpy as np
import pytest

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


def naive_core(n, edges):
    """Reference peeler: rescan everything each round and delete the edge of
    the smallest degree-1 vertex, an order unlike peel_2core's first in,
    first out; also reports the aspect-ratio trajectory (rows / occupied
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
