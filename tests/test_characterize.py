import pytest

from irrcolor.characterize import (
    bipartite_two_family,
    find_anchor_edge,
    find_near_twin_pair,
    is_star,
)
from irrcolor.coloring import irredundance_chromatic_number
from irrcolor.errors import PreconditionError
from irrcolor.families import fixture
from irrcolor.graphs import from_edge_list

from conftest import complete, complete_bipartite, cycle, path


def test_is_star():
    assert is_star(from_edge_list(4, [(0, 1), (0, 2), (0, 3)])) == 0
    assert is_star(from_edge_list(2, [(0, 1)])) == 0
    assert is_star(path(4)) is None
    assert is_star(complete(3)) is None


def _per_vertex_star_center(g):
    """The star test as a per-vertex scan: a vertex of degree n - 1 whose
    other vertices all have degree 1."""
    if g.n < 2:
        return None
    for c in range(g.n):
        if g.degree(c) == g.n - 1 and all(g.degree(v) == 1 for v in range(g.n) if v != c):
            return c
    return None


def test_is_star_matches_the_per_vertex_test_on_every_labelled_graph_up_to_six_vertices():
    checked = 0
    for n in range(7):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for picks in range(1 << len(pairs)):
            g = from_edge_list(n, [pair for i, pair in enumerate(pairs) if picks >> i & 1])
            assert is_star(g) == _per_vertex_star_center(g), (n, picks)
            checked += 1
    assert checked == 33868


def test_anchor_edge_on_fixture():
    inst = fixture("anchor_sample")
    w = find_anchor_edge(inst.graph)
    assert w is not None and w.kind == "anchor_edge"
    assert (w.v1, w.v2) == (0, 4)
    assert irredundance_chromatic_number(inst.graph)[0] == 2


def test_anchor_edge_complete_bipartite():
    for m in range(2, 4):
        for n in range(2, 4):
            assert find_anchor_edge(complete_bipartite(m, n)) is not None


def test_anchor_edge_absent_on_c8():
    assert find_anchor_edge(cycle(8)) is None


def test_anchor_edge_requires_bipartite():
    with pytest.raises(PreconditionError):
        find_anchor_edge(cycle(5))


def test_near_twin_on_fixture_and_c6():
    inst = fixture("near_twin_sample")
    w = find_near_twin_pair(inst.graph)
    assert w is not None and w.kind == "near_twin"
    assert find_near_twin_pair(cycle(6)) is not None
    assert find_near_twin_pair(cycle(8)) is None


def test_family_classification():
    for m in range(2, 4):
        for n in range(2, 4):
            assert bipartite_two_family(complete_bipartite(m, n)).kind == "dominating_edge"
    assert bipartite_two_family(fixture("two_stars").graph).kind == "linked_stars"
    assert bipartite_two_family(path(5)).kind == "linked_stars"
    assert bipartite_two_family(cycle(6)).kind == "near_twin"
    assert bipartite_two_family(cycle(8)).kind == "none"
    assert bipartite_two_family(from_edge_list(4, [(0, 1), (0, 2), (0, 3)])).kind == "star"


def test_family_membership_tracks_chi_i_on_paths():
    # P_4..P_6 need two colors, P_7 needs three: membership flips with it
    for n in range(4, 8):
        g = path(n)
        member = bipartite_two_family(g).kind in (
            "linked_stars",
            "dominating_edge",
            "near_twin",
        )
        assert member == (irredundance_chromatic_number(g)[0] == 2)


def test_three_way_equivalence(bipartite_le7):
    for g in bipartite_le7:
        if g.n < 2 or is_star(g) is not None:
            continue
        chi_i = irredundance_chromatic_number(g)[0]
        pair = find_anchor_edge(g) or find_near_twin_pair(g)
        fam = bipartite_two_family(g)
        member = fam.kind in ("linked_stars", "dominating_edge", "near_twin")
        assert (chi_i == 2) == (pair is not None) == member
