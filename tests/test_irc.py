import random
import time

import pytest

from irrcolor.coloring import Coloring, chromatic_number
from irrcolor.errors import PreconditionError
from irrcolor.graphs import bits, from_edge_list
from irrcolor.irc import (
    irc_chromatic_number,
    irc_colorability,
    irc_obstructions,
    irc_with_k_colors,
    is_irc_coloring,
)
from irrcolor.irredundance import is_irredundant, private_neighbors
from irrcolor.oracle import independent_partitions, oracle_invariant

from conftest import complete, cycle, path, random_connected, tree7


def test_is_irc_coloring_preconditions():
    c4 = cycle(4)
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 0, 1, 1), 2))  # improper
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 1), 2))  # wrong length


def test_c4_two_coloring_is_committee_safe():
    verdict = is_irc_coloring(cycle(4), Coloring((0, 1, 0, 1), 2))
    assert verdict.is_irc and verdict.violating_rc is None


def test_no_c5_coloring_is_committee_safe():
    c5 = cycle(5)
    for k in range(3, 6):
        for col in independent_partitions(c5, k):
            verdict = is_irc_coloring(c5, col)
            assert not verdict.is_irc
            # the reported committee really is a rainbow committee
            rc = verdict.violating_rc
            assert rc.bit_count() == k
            assert not is_irredundant(c5, rc)


def test_verdict_witness_is_replayable():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 7))
        k, col = chromatic_number(g)
        verdict = is_irc_coloring(g, col)
        if not verdict.is_irc:
            rc = verdict.violating_rc
            seen = set()
            for v in bits(rc):
                c = col.color_of[v]
                assert c not in seen
                seen.add(c)
            assert len(seen) == col.k
            assert not is_irredundant(g, rc)


def test_obstructions():
    recs = irc_obstructions(tree7())
    assert {r.vertex for r in recs if r.kind == "low_degree"} == {2, 3, 5, 6}
    assert irc_obstructions(cycle(4)) == []
    # split graph with min degree two: clique obstruction
    split = from_edge_list(
        5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 1), (4, 2)]
    )
    assert split.min_degree() >= 2
    kinds = {r.kind for r in irc_obstructions(split)}
    assert "clique_private" in kinds


def test_colorability_examples():
    col = irc_colorability(cycle(4))
    assert col is not None and col.k == 2
    for n in range(1, 7):
        assert irc_colorability(complete(n)) is None
    assert irc_colorability(cycle(7)) is None
    for t in range(1, 5):
        assert irc_colorability(cycle(2 * t + 1)) is None
    for n in range(2, 9):
        assert irc_colorability(path(n)) is None


def test_colorability_returns_verified_coloring():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 7))
        col = irc_colorability(g)
        if col is not None:
            assert is_irc_coloring(g, col).is_irc
            assert g.min_degree() >= 2
            # in a committee-safe coloring every vertex has two same-colored
            # neighbors
            masks = col.classes()
            for v in range(g.n):
                assert any((g.adj[v] & m).bit_count() >= 2 for m in masks)


def test_irc_chromatic_number_examples():
    res = irc_chromatic_number(cycle(4))
    assert res is not None and res[0] == 2
    for n in range(2, 7):
        assert irc_chromatic_number(complete(n)) is None
    res = irc_chromatic_number(cycle(6))
    assert res is not None and res[0] == 2


def test_irc_chromatic_number_matches_oracle():
    rng = random.Random(43)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 7))
        res = irc_chromatic_number(g)
        assert (res[0] if res else None) == oracle_invariant(g, "chi_irc").value
        col = irc_colorability(g)
        assert (col is not None) == oracle_invariant(g, "irc_colorable").value
        # presence must agree between the two entry points
        assert (res is None) == (col is None)


def test_irc_with_k_colors():
    assert irc_with_k_colors(cycle(4), 2) is not None
    assert irc_with_k_colors(cycle(4), 3) is None
    assert irc_with_k_colors(cycle(6), 2) is not None


def test_committee_checker_matches_naive_products():
    # the victim-driven cover search must agree with brute-force committee
    # enumeration on arbitrary proper colorings, not just optimal ones
    from itertools import product

    rng = random.Random(59)
    checked = 0
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 6))
        for k in range(2, g.n + 1):
            for i, col in enumerate(independent_partitions(g, k)):
                if i >= 4:  # a few partitions per k is plenty
                    break
                members = [list(bits(m)) for m in col.classes()]
                naive = all(
                    is_irredundant(g, sum(1 << v for v in committee))
                    for committee in product(*members)
                )
                assert is_irc_coloring(g, col).is_irc == naive
                checked += 1
    assert checked > 100


def test_cheap_check_agrees_with_obstruction_list():
    from irrcolor.irc import _obstructed

    rng = random.Random(17)
    for _ in range(40):
        g = random_connected(rng, rng.randint(1, 8), 0.5)
        assert _obstructed(g) == bool(irc_obstructions(g))
    assert _obstructed(from_edge_list(0, []))


def _cocktail_with_triangles(k: int = 34):
    # a cocktail party graph on k vertices, with 2^(k/2) maximal cliques,
    # and a triangle hung on each vertex
    edges = [(u, v) for u in range(k) for v in range(u + 1, k) if u % 2 or v != u + 1]
    for v in range(k):
        a, b = k + 2 * v, k + 2 * v + 1
        edges += [(v, a), (v, b), (a, b)]
    return from_edge_list(3 * k, edges)


def test_simplicial_obstruction_precedes_the_clique_walk():
    from irrcolor.irc import _obstructed

    g = _cocktail_with_triangles()
    t0 = time.monotonic()
    assert _obstructed(g)
    assert time.monotonic() - t0 < 1.0


def test_listed_obstructions_are_genuine_and_complete(connected_le6):
    for g in connected_le6:
        def is_clique(q):
            return all(g.adj[v] | 1 << v | ~q == -1 for v in bits(q))

        maximal_cliques = [
            q for q in range(1, 1 << g.n)
            if is_clique(q) and not any(is_clique(q | 1 << v) for v in range(g.n) if not q >> v & 1)
        ]
        blocked = {
            q for q in maximal_cliques
            if q.bit_count() >= 2 and any(private_neighbors(g, v, q) == 0 for v in bits(q))
        }
        listed = irc_obstructions(g)
        cliques = [r.clique for r in listed if r.kind == "clique_private"]
        assert len(cliques) == len(set(cliques))
        assert set(cliques) == blocked
        for r in listed:
            if r.kind == "low_degree":
                assert g.degree(r.vertex) <= 1
            else:
                assert r.clique >> r.vertex & 1
                assert private_neighbors(g, r.vertex, r.clique) == 0
