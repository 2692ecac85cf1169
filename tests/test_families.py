import heapq
import random
from itertools import product

import pytest

from irrcolor import families as F
from irrcolor.characterize import epn_rich_vertex
from irrcolor.coloring import (
    add_clique,
    chromatic_number,
    irredundance_chromatic_number,
    is_proper,
    is_rainbow,
)
from irrcolor.errors import ParameterError, PreconditionError
from irrcolor.graphs import (
    Graph,
    bipartition,
    component_count,
    connectivity_profile,
    corona_k1,
    from_edge_list,
    mask_from,
    merge_copies,
)
from irrcolor.invariants import REGISTRY
from irrcolor.irc import is_irc_coloring
from irrcolor.irredundance import ir_number, is_maximal_irredundant
from irrcolor.oracle import oracle_invariant

from conftest import complete_bipartite, cycle


ALL_SMALL_INSTANCES = [
    F.gen_complete(4),
    F.gen_complete_bipartite(2, 3),
    F.gen_star(5),
    F.gen_cycle(5),
    F.gen_cycle(6),
    F.gen_path(4),
    F.gen_family_a(6, 3),
    F.gen_family_a(8, 4),
    F.gen_block_h(3, 1),
    F.gen_family_z(3, 2),
    F.gen_family_b(6, 4),
    F.gen_cut_vertex(3),
    F.gen_bridge(3, 3),
    F.gen_tilde(3),
    F.gen_star_of_cycles(4),
    F.fixture("tree7"),
    F.fixture("anchor_sample"),
    F.fixture("near_twin_sample"),
    F.fixture("two_stars"),
    F.fixture("epn_sample"),
]


@pytest.mark.parametrize("inst", ALL_SMALL_INSTANCES, ids=lambda i: i.source)
def test_instances_are_connected_with_proper_colorings(inst):
    assert component_count(inst.graph) == 1
    if inst.coloring is not None:
        assert is_proper(inst.graph, inst.coloring)
        assert inst.coloring.canonical() == inst.coloring
    if inst.labels is not None:
        assert len(inst.labels) == inst.graph.n


def test_package_built_graphs_pass_the_public_check(connected_le6, bipartite_le7):
    # the package's constructors skip Graph's check; each graph they build
    # must still be one the check accepts
    rng = random.Random(18)
    for g in connected_le6 + bipartite_le7 + [inst.graph for inst in ALL_SMALL_INSTANCES]:
        s = rng.randrange(1 << g.n)
        for h in (g, add_clique(g, s), corona_k1(g), merge_copies(g, s, 2)):
            assert Graph(h.n, h.adj) == h


def _edge_list_prufer_tree(seq, n):
    """Reference decoder: the heap decode into an edge list, built by
    from_edge_list."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(n, edges)


def test_prufer_tree_matches_the_edge_list_decoder():
    # every sequence with n <= 7, then the seeded n = 8 sequences of the
    # verify min-degree trees row
    rng = random.Random(88)
    seqs = [(seq, n) for n in range(2, 8) for seq in product(range(n), repeat=n - 2)]
    seqs += [(tuple(rng.randrange(8) for _ in range(6)), 8) for _ in range(4096)]
    assert len(seqs) == 22344
    for seq, n in seqs:
        g = F._prufer_tree(seq, n)
        assert g.adj == _edge_list_prufer_tree(seq, n).adj, seq
        assert g.m == n - 1 and component_count(g) == 1, seq


def test_basic_dispatch_and_errors():
    assert F.generate("complete", 4).graph == F.gen_complete(4).graph
    assert F.generate("A", 8, 3).graph == F.gen_family_a(8, 3).graph
    with pytest.raises(ParameterError):
        F.generate("complete")
    with pytest.raises(ParameterError):
        F.generate("frob", 3)
    with pytest.raises(ParameterError):
        F.gen_cycle(2)
    with pytest.raises(ParameterError):
        F.gen_star(1)


def test_family_a_claims_small():
    for n, k in ((6, 3), (8, 3), (8, 4)):
        inst = F.gen_family_a(n, k)
        g = inst.graph
        assert g.n == n
        assert chromatic_number(g)[0] == k
        assert ir_number(g)[0] == k
        assert irredundance_chromatic_number(g)[0] == k
        # the clique is maximal irredundant and rainbow in the attached coloring
        clique = mask_from(range(k))
        assert is_maximal_irredundant(g, clique)
        assert is_rainbow(inst.coloring, clique)


def test_family_a_boundary_and_errors():
    inst = F.gen_family_a(6, 3)  # boundary n = 2k handled below
    assert F.gen_family_a(8, 4).graph.n == 8
    with pytest.raises(ParameterError):
        F.gen_family_a(5, 3)
    with pytest.raises(ParameterError):
        F.gen_family_a(4, 0)


def test_block_h_shape():
    for (k, l), n in (((3, 1), 7), ((3, 2), 8), ((4, 2), 10)):
        inst = F.gen_block_h(k, l)
        assert inst.graph.n == n
    inst = F.gen_block_h(3, 2)
    # v is adjacent to everything else in the block
    v = inst.label_index("v")
    assert inst.graph.degree(v) == inst.graph.n - 1
    with pytest.raises(ParameterError):
        F.gen_block_h(2, 1)
    with pytest.raises(ParameterError):
        F.gen_block_h(3, 0)


def test_family_z_claims():
    inst = F.gen_family_z(3, 2)
    g = inst.graph
    assert g.n == 14
    # vertex count in closed form: shared k-1 plus l copies of k+l+1 privates
    k, l = 3, 2
    assert g.n == l * (2 * k + l) - (l - 1) * (k - 1)
    assert chromatic_number(g)[0] == 3
    assert ir_number(g)[0] == 2
    assert irredundance_chromatic_number(g)[0] == 4
    # the copy centers form a minimum dominating set
    from irrcolor.irredundance import gamma_number, is_dominating

    centers = sum(1 << inst.label_index(f"v{i}") for i in (1, 2))
    assert is_dominating(g, centers)
    assert gamma_number(g)[0] == l
    z1 = F.gen_family_z(3, 1)
    assert chromatic_number(z1.graph)[0] == 3
    assert ir_number(z1.graph)[0] == 1
    assert irredundance_chromatic_number(z1.graph)[0] == 3


def test_family_b_claims():
    for n, k in ((6, 4), (5, 2), (6, 6)):
        inst = F.gen_family_b(n, k)
        assert inst.graph.n == n
        assert irredundance_chromatic_number(inst.graph)[0] == k
        assert is_proper(inst.graph, inst.coloring)
    with pytest.raises(ParameterError):
        F.gen_family_b(5, 1)
    with pytest.raises(ParameterError):
        F.gen_family_b(4, 5)


def test_irc_families_certify_their_colorings():
    for inst, classes in (
        (F.gen_cut_vertex(3), 3),
        (F.gen_bridge(3, 3), 4),
        (F.gen_tilde(3), 3),
        (F.gen_star_of_cycles(4), 4),
    ):
        assert inst.coloring.k == classes
        assert is_irc_coloring(inst.graph, inst.coloring).is_irc


def test_irc_family_shapes():
    assert F.gen_cut_vertex(3).graph.n == 31
    assert F.gen_tilde(4).graph.n == 36
    assert F.gen_tilde(3).graph.n == 27
    assert F.gen_star_of_cycles(4).graph.n == 36
    with pytest.raises(ParameterError):
        F.generate("tilde", 2)
    with pytest.raises(ParameterError):
        F.generate("bipartite_star_of_cycles", 5)
    with pytest.raises(ParameterError):
        F.generate("cut_vertex", 2)


def test_gadget_union_is_bipartite():
    inst = F.gen_cut_vertex(3)
    g = inst.graph
    # dropping the hub's edges leaves a bipartite union of gadgets
    hubless = from_edge_list(g.n, [e for e in g.edges() if 30 not in e])
    assert bipartition(hubless) is not None


def test_cut_vertex_connectivity():
    from irrcolor.graphs import connectivity_profile

    prof = connectivity_profile(F.gen_cut_vertex(3).graph)
    assert prof.connected
    assert prof.cut_vertices == 1 << 30  # hub only
    assert prof.bridges == ()
    prof = connectivity_profile(F.gen_bridge(3, 3).graph)
    assert prof.bridges == ((30, 61),)


def test_fixtures():
    t = F.fixture("tree7")
    assert t.graph.n == 7
    assert irredundance_chromatic_number(t.graph)[0] == 3
    assert oracle_invariant(t.graph, "chi_i").value == 3
    e = F.fixture("epn_sample")
    assert e.graph.n == 11
    assert e.claims["chi_irc"].exact is False
    with pytest.raises(ParameterError):
        F.fixture("nope")


def test_small_exact_claims_match_engines():
    # every exact claim: an invariant id through its registry solver up to
    # the CLI cap, a connectivity of 1 through the connectivity profile
    above_cap = []
    for inst in ALL_SMALL_INSTANCES:
        g = inst.graph
        for name, claim in inst.claims.items():
            if not claim.exact:
                continue
            if name in REGISTRY:
                if g.n > REGISTRY[name].cap:
                    above_cap.append((inst.source, name))
                    continue
                assert REGISTRY[name].solve(g, None)[0] == claim.value, (inst.source, name)
            elif name in ("kappa", "kappa_prime"):
                prof = connectivity_profile(g)
                cut = prof.cut_vertices if name == "kappa" else prof.bridges  # a cut vertex, or a bridge
                assert claim.value == 1 and prof.connected and cut, (inst.source, name)
            else:
                pytest.fail(f"{inst.source}: no check for the exact claim {name!r}")
    # the committee searches on these families run in tests/test_irc.py
    assert above_cap == [("cut_vertex(3)", "irc_colorable"), ("bridge(3,3)", "irc_colorable"),
                         ("tilde(3)", "irc_colorable"), ("tilde(3)", "chi_irc"),
                         ("bipartite_star_of_cycles(4)", "irc_colorable")]


def test_small_exact_claims_match_oracle():
    for inst in ALL_SMALL_INSTANCES:
        g = inst.graph
        if g.n > 8:
            continue
        for name, claim in inst.claims.items():
            if claim.exact and name in (
                "chi", "ir", "gamma", "chi_i", "irc_colorable", "chi_irc",
            ):
                assert oracle_invariant(g, name).value == claim.value, (
                    inst.source,
                    name,
                )


def test_epn_rich_vertex():
    assert epn_rich_vertex(F.fixture("epn_sample").graph) == 0
    assert epn_rich_vertex(cycle(4)) is None
    assert epn_rich_vertex(complete_bipartite(3, 3)) is None
    assert epn_rich_vertex(complete_bipartite(1, 3)) is None  # the center has no partner, the leaves are twins
    with pytest.raises(PreconditionError):
        epn_rich_vertex(cycle(5))
