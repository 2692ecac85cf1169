import random
import sys

import pytest

from irrcolor.errors import FormatError, LoopError, ParameterError, UnsupportedSizeError
from irrcolor.graphs import (
    Graph,
    bipartition,
    bits,
    component_count,
    connectivity_profile,
    corona_k1,
    format_edge_list,
    from_edge_list,
    mask_from,
    merge_copies,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)

from conftest import assert_frozen_value, complete, cycle, path, random_graph, tree7


def test_from_edge_list_basics():
    k2 = from_edge_list(2, [(0, 1)])
    assert k2.m == 1 and k2.adj == (2, 1)
    c4 = cycle(4)
    assert c4.m == 4
    assert sorted(c4.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # duplicates collapse
    assert from_edge_list(2, [(0, 1), (1, 0), (0, 1)]).m == 1


def test_from_edge_list_errors():
    with pytest.raises(IndexError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(LoopError):
        from_edge_list(3, [(1, 1)])


def test_graph_constructor_rejects_each_outside_fault():
    assert Graph(2, (2, 1)) == from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError, match="length"):
        Graph(3, (2, 1))
    with pytest.raises(ValueError, match="length"):
        Graph(-1, ())
    for adj in ((4, 0), (2, 1 | 1 << 9), (-2, 1)):  # a bit at n, far beyond it, and a negative row
        with pytest.raises(ValueError, match="beyond"):
            Graph(2, adj)
    with pytest.raises(LoopError):
        Graph(3, (1, 0, 0))
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (2, 0, 0))


def test_graph_is_a_frozen_value():
    g = Graph(3, (6, 5, 3))
    assert_frozen_value(g, complete(3))  # the checked and the unchecked constructor
    assert repr(g) == "Graph(n=3, adj=(6, 5, 3))"
    assert g != Graph(3, (2, 1, 0)) and g != Graph(4, (6, 5, 3, 0))


def test_fig_tree_degrees():
    g = tree7()
    assert [g.degree(v) for v in range(7)] == [3, 3, 1, 1, 2, 1, 1]


def test_bipartition():
    assert bipartition(cycle(4)) == (mask_from([0, 2]), mask_from([1, 3]))
    assert bipartition(cycle(5)) is None
    v1, v2 = bipartition(tree7())
    assert {v1, v2} == {mask_from([0, 4, 5]), mask_from([1, 2, 3, 6])}


def test_bipartition_no_monochromatic_edges_and_odd_walk_witness():
    # every None is checked against a brute-force search over all 2-colorings
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        parts = bipartition(g)
        if parts is not None:
            v1, v2 = parts
            assert v1 | v2 == g.vertices and v1 & v2 == 0
            for u, v in g.edges():
                assert (v1 >> u & 1) != (v1 >> v & 1)
        else:
            assert not any(
                all((s >> u & 1) != (s >> v & 1) for u, v in g.edges()) for s in range(1 << g.n)
            )


def test_connectivity_profile():
    prof = connectivity_profile(cycle(4))
    assert prof.connected and prof.cut_vertices == 0 and prof.bridges == ()
    prof = connectivity_profile(tree7())
    assert prof.connected
    assert prof.cut_vertices == mask_from([0, 1, 4])  # every non-leaf
    assert set(prof.bridges) == set(tree7().edges())
    two = from_edge_list(5, [(0, 1), (2, 3)])
    assert not connectivity_profile(two).connected


def test_corona():
    assert corona_k1(complete(1)) == from_edge_list(2, [(0, 1)])
    net = corona_k1(complete(3))
    assert sorted(net.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]
    # pendant of v sits at n + v
    for v in range(3):
        assert net.adj[3 + v] == 1 << v


def test_merge_copies():
    k2 = from_edge_list(2, [(0, 1)])
    # path on 3 vertices with the shared endpoint relabeled first
    assert merge_copies(k2, mask_from([0]), 2) == from_edge_list(3, [(0, 1), (0, 2)])
    g = tree7()
    assert merge_copies(g, g.vertices, 1) == g
    # single copy with a partial shared set is the same graph relabeled
    # (shared vertices first, then the rest)
    shared = g.vertices & ~1
    order = list(bits(shared)) + [0]
    pos = {old: new for new, old in enumerate(order)}
    relabeled = from_edge_list(7, [(pos[u], pos[v]) for u, v in g.edges()])
    assert merge_copies(g, shared, 1) == relabeled
    h = mask_from([0, 1])
    merged = merge_copies(g, h, 3)
    assert merged.n == 2 + 3 * 5
    with pytest.raises(ParameterError):
        merge_copies(g, h, 0)


def test_merge_copies_empty_shared_multiplies_components():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        copies = rng.randint(1, 3)
        merged = merge_copies(g, 0, copies)
        assert component_count(merged) == copies * component_count(g)


def test_graph6_known_values():
    assert to_graph6(from_edge_list(1, [])) == b"@"
    assert parse_graph6(b"@") == from_edge_list(1, [])
    assert to_graph6(complete(5)) == b"D~{"
    assert parse_graph6(">>graph6<<D~{") == complete(5)


def test_graph6_roundtrip_exhaustive_small():
    for n in range(0, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for picks in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_random():
    rng = random.Random(3)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_injective_on_labeled_graphs():
    seen = set()
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for picks in range(1 << 6):
        g = from_edge_list(4, [pairs[i] for i in range(6) if picks >> i & 1])
        seen.add(to_graph6(g))
    assert len(seen) == 64


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 16))
        gx = nx.from_graph6_bytes(to_graph6(g))
        assert {tuple(sorted(e)) for e in gx.edges} == set(g.edges())
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert parse_graph6(nx.to_graph6_bytes(h, header=False).strip()) == g


def test_graph6_errors():
    with pytest.raises(FormatError):
        parse_graph6(b"")
    with pytest.raises(FormatError):
        parse_graph6(b"D~")  # truncated payload for n=5
    with pytest.raises(FormatError):
        parse_graph6(bytes([63 + 5, 30]))  # payload byte below 63
    with pytest.raises(FormatError):
        parse_graph6(b"~??")  # multi-byte size field
    with pytest.raises(UnsupportedSizeError):
        to_graph6(from_edge_list(63, []))


def test_edge_list_text_roundtrip():
    g = tree7()
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    assert parse_edge_list("# comment\n2 1\n0 1\n") == from_edge_list(2, [(0, 1)])
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(FormatError):
        parse_edge_list("nonsense here\n")


def test_edge_list_text_rejects_a_repeated_edge():
    # the header counts edges, so an edge written twice, in either
    # direction, is a format error; the builder still collapses it
    for text in ("3 2\n0 1\n1 0\n", "3 2\n0 1\n0 1\n"):
        with pytest.raises(FormatError, match="found 1 distinct"):
            parse_edge_list(text)
    assert from_edge_list(3, [(0, 1), (1, 0)]).m == 1


def test_connectivity_profile_matches_deletion_counts():
    # a cut vertex or a bridge is exactly what raises the component count
    # when deleted
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.35, 0.5)))
        prof = connectivity_profile(g)
        base = component_count(g)
        assert prof.connected == (base <= 1)
        cuts = 0
        for v in range(g.n):
            rest = from_edge_list(g.n, [e for e in g.edges() if v not in e])
            if component_count(rest) > base + 1:  # v stays behind, isolated
                cuts |= 1 << v
        assert prof.cut_vertices == cuts
        bridges = tuple(
            (u, v) for u, v in g.edges()
            if component_count(from_edge_list(g.n, [e for e in g.edges() if e != (u, v)])) > base
        )
        assert prof.bridges == bridges


def test_connectivity_profile_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    prof = connectivity_profile(path(3000))
    assert sys.getrecursionlimit() == limit
    assert len(prof.bridges) == 2999
    assert prof.connected
