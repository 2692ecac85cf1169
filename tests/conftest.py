import pickle
import random
import sys
from types import SimpleNamespace

import pytest

from irrcolor import irredundance
from irrcolor.graphs import Graph, component_count, from_edge_list
from irrcolor.irredundance import is_irredundant
from irrcolor.claims import _asset_graphs

# The CLI and the package root load these modules on first use.  Load them
# now, so that no first import runs inside a test that has rebound one of
# their names (``spy``): the module would keep the stand-in for the rest of
# the session.
from irrcolor import characterize, claims, families, oracle  # noqa: F401


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


def assert_frozen_value(a, b) -> None:
    """``a`` and ``b`` are separately built, equal instances of a frozen
    value type: they key the same memo entry, equal nothing of another
    type, refuse assignment and deletion, and survive a pickle round trip."""
    assert a is not b and a == b and hash(a) == hash(b)
    assert {("walk", a): 1}.get(("walk", b)) == 1  # how a Scope memo reads them
    fields = dict(vars(a))
    assert a != SimpleNamespace(**fields) and a != tuple(fields.values())
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert vars(a) == fields
    back = pickle.loads(pickle.dumps(a))  # as the --jobs pool sends graphs
    assert back == a and type(back) is type(a) and vars(back) == fields
    with pytest.raises(AttributeError):
        setattr(back, next(iter(fields)), None)


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


def spy_walks(monkeypatch) -> list:
    """Every set walk that irrcolor starts from here on, in start order."""
    walks = []
    real = irredundance._Walk

    def started(*args):
        walks.append(real(*args))
        return walks[-1]

    monkeypatch.setattr(irredundance, "_Walk", started)
    return walks


def walk_depths(walks) -> list:
    """The largest set size whose layer each walk built: the deepest layer
    its readers asked for."""
    return [len(walk.layers) - 1 for walk in walks]


def walk_built(walks) -> list:
    """The number of sets each walk has built, the empty set included:
    every set of its complete layers, and of the next layer those below
    the first set that the mask-order build has still to reach, plus those
    past it that ``first`` built out of that order.  Counted from the graph
    with ``is_irredundant``, not from the walk's own bookkeeping."""
    counts = []
    for walk in walks:
        g = Graph(tuple(c & ~(1 << v) for v, c in enumerate(walk.closed)))
        depth = len(walk.layers)
        built = sum(walk_nodes(g, depth - 1)[:depth])
        part = walk.part
        if walk.frontier:
            reached = next((s | c & -c for s, _, _, c in part.parents[part.at:] if c), 1 << g.n)
            built += sum(1 for s in irredundant_sets(g, depth) if s < reached)
            built += sum(1 for s in part.aside if s >= reached)
        counts.append(built)
    return counts


def irredundant_sets(g: Graph, size: int) -> list:
    """The irredundant sets of ``size`` vertices, each found from the set
    without its lowest vertex and tested with ``is_irredundant``."""
    found, stack = [], [(0, g.n)]
    while stack:
        s, low = stack.pop()
        if s.bit_count() == size:
            found.append(s)
        else:
            stack += [(s | 1 << w, w) for w in range(low) if is_irredundant(g, s | 1 << w)]
    return found


def rainbow_gnp_graphs() -> list:
    """The 15 base graphs of the rainbow_gnp benchmark workload: connected
    G(n, 0.4), three for each n = 12..16, drawn as perfbench/inputs.py
    draws them."""
    rng = random.Random("rainbow_gnp:base")
    graphs = []
    for n in range(12, 17):
        for _ in range(3):
            g = None
            while g is None or component_count(g) != 1:
                g = from_edge_list(n, [(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.4])
            graphs.append(g)
    return graphs


def committee_bipartite_graphs() -> list:
    """The 15 base graphs of the committee_bipartite benchmark workload:
    ``random_bipartite`` at p = 0.6, eight with n = 11 and then seven with
    n = 12, drawn as perfbench/inputs.py draws them."""
    rng = random.Random("committee_bipartite:base")
    return [random_bipartite(rng, n, 0.6) for n in (11,) * 8 + (12,) * 7]


def walk_nodes(g: Graph, depth=None) -> list:
    """The number of irredundant sets of each size, up to ``depth`` or the
    largest, by a plain depth-first walk that tests each extension with
    ``is_irredundant``."""
    counts = [0] * (g.n + 1)
    stack = [(0, g.n)]
    while stack:
        s, low = stack.pop()
        counts[s.bit_count()] += 1
        if depth is None or s.bit_count() < depth:
            stack += [(s | 1 << w, w) for w in range(low) if is_irredundant(g, s | 1 << w)]
    while not counts[-1]:
        counts.pop()
    return counts


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
