"""The public set predicates against copies of their earlier definitions,
which re-derive N[S - v] for each member through ``bits``.

``irredundance`` computes one coverage pass (N[S] and the vertices covered
exactly once) and reads every test off it; ``is_proper`` reads each row
against its own class.  These copies are the specification they must
match, on every subset of both packaged assets, on sampled subsets of
seeded graphs with 8 to 16 vertices, and on proper and improper colorings.
"""

import random

import pytest

from irrcolor.coloring import Coloring, chromatic_number, is_proper, is_rainbow
from irrcolor.errors import PreconditionError
from irrcolor.graphs import bits, closed_neighborhood_of_set
from irrcolor.irredundance import (
    is_dominating,
    is_irredundant,
    is_maximal_irredundant,
    private_neighbors,
)

from conftest import random_bipartite, random_connected


def ref_closed_neighborhood_of_set(g, s):
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def ref_private_neighbors(g, v, s):
    return g.closed(v) & ~ref_closed_neighborhood_of_set(g, s & ~(1 << v))


def ref_is_irredundant(g, s):
    return all(ref_private_neighbors(g, v, s) for v in bits(s))


def ref_is_maximal_irredundant(g, s):
    if not ref_is_irredundant(g, s):
        return False
    covered = ref_closed_neighborhood_of_set(g, s)
    return not any(g.closed(v) & ~covered and ref_is_irredundant(g, s | (1 << v)) for v in bits(g.vertices & ~s))


def ref_is_dominating(g, s):
    return ref_closed_neighborhood_of_set(g, s) == g.vertices


def ref_is_proper(g, coloring):
    return all(coloring.color_of[u] != coloring.color_of[v] for u, v in g.edges())


def ref_is_rainbow(coloring, s):
    colors = [coloring.color_of[v] for v in bits(s)]
    return len(set(colors)) == len(colors)


def assert_set_predicates_match(g, s):
    assert closed_neighborhood_of_set(g, s) == ref_closed_neighborhood_of_set(g, s)
    assert is_dominating(g, s) == ref_is_dominating(g, s)
    assert is_irredundant(g, s) == ref_is_irredundant(g, s), (g, s)
    assert is_maximal_irredundant(g, s) == ref_is_maximal_irredundant(g, s), (g, s)
    for v in bits(s):
        assert private_neighbors(g, v, s) == ref_private_neighbors(g, v, s)


def _coloring(colors):
    """The Coloring of any color list, ids renumbered by first use."""
    ids = {}
    return Coloring([ids.setdefault(c, len(ids)) for c in colors])


def _seeded_graphs():
    rng = random.Random("predicates")
    graphs = [random_connected(rng, n, p) for n in range(8, 17) for p in (0.2, 0.4, 0.7)]
    return graphs + [random_bipartite(rng, n, p) for n in range(8, 17) for p in (0.4, 0.7)]


def test_set_predicates_match_on_every_subset_of_the_assets(connected_le6, bipartite_le7):
    counts = {True: 0, False: 0}  # maximal irredundant or not, so both answers are met
    for g in connected_le6 + bipartite_le7:
        for s in range(1 << g.n):
            assert_set_predicates_match(g, s)
            counts[is_maximal_irredundant(g, s)] += 1
    assert min(counts.values()) > 1000


def test_set_predicates_match_on_sampled_subsets_of_seeded_graphs():
    rng = random.Random(9)
    for g in _seeded_graphs():
        samples = [rng.getrandbits(g.n) for _ in range(150)]
        # sparse sets too, where maximal irredundant ones live
        samples += [sum(1 << v for v in rng.sample(range(g.n), rng.randint(1, 4))) for _ in range(150)]
        for s in samples:
            assert_set_predicates_match(g, s)


def test_private_neighbors_still_requires_a_member():
    g = random_connected(random.Random(1), 8)
    with pytest.raises(PreconditionError):
        private_neighbors(g, 0, 0b110)


def test_coloring_predicates_match_on_proper_and_improper_colorings(connected_le6):
    rng = random.Random(5)
    graphs = connected_le6[::7] + _seeded_graphs()
    seen = {True: 0, False: 0}
    for g in graphs:
        colorings = [chromatic_number(g)[1]]
        for k in (2, 3, g.n // 2 + 1, g.n):
            colors = [rng.randrange(k) for _ in range(g.n)]
            colorings.append(_coloring(colors))
        # a proper coloring by a greedy pass in a random vertex order
        order, colors = rng.sample(range(g.n), g.n), [-1] * g.n
        for v in order:
            taken = {colors[u] for u in bits(g.adj[v])}
            colors[v] = min(c for c in range(g.n) if c not in taken)
        colorings.append(_coloring(colors))
        for coloring in colorings:
            proper = is_proper(g, coloring)
            assert proper == ref_is_proper(g, coloring)
            seen[proper] += 1
            for _ in range(40):
                s = rng.getrandbits(g.n)
                assert is_rainbow(coloring, s) == ref_is_rainbow(coloring, s)
    assert min(seen.values()) > 20
