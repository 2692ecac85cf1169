import random
import sys

import pytest

from irrcolor.graphs import Graph, component_count, from_edge_list
from irrcolor.cli import _asset_graphs


def complete(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(m: int, n: int) -> Graph:
    return from_edge_list(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def tree7() -> Graph:
    return from_edge_list(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6)])


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def random_connected(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if component_count(g) == 1:
            return g


def random_bipartite(rng: random.Random, n: int, p: float) -> Graph:
    """Connected bipartite graph with minimum degree >= 2, by rejection: the
    committee solvers get past their obstruction checks on these."""
    while True:
        left = rng.randint(2, n - 2)
        g = from_edge_list(n, [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p])
        if g.min_degree() >= 2 and component_count(g) == 1:
            return g


def spy(monkeypatch, module, name, seen):
    """Rebind ``module.name`` wherever an irrcolor module holds it, so every
    call appends its arguments to ``seen``."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("irrcolor") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counted)


def walk_caps(walks) -> list:
    """The size cap of each ``_irredundant_sets`` call that ``spy`` saw,
    None for an uncapped walk."""
    return [args[2] if len(args) > 2 else None for args in walks]


class Polls:
    """A budget token that counts its polls and expires from its
    ``limit``-th poll on; with no limit it never expires."""

    def __init__(self, limit=None):
        self.limit = limit
        self.polls = 0

    def expired(self):
        self.polls += 1
        return self.limit is not None and self.polls >= self.limit


@pytest.fixture(scope="session")
def connected_le6():
    return _asset_graphs("connected_le6.g6")


@pytest.fixture(scope="session")
def bipartite_le7():
    return _asset_graphs("bipartite_connected_le7.g6")
