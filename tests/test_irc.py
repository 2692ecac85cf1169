import random
import sys
import time
from collections import Counter
from itertools import accumulate, islice
from operator import or_

import pytest

from irrcolor import budget, coloring, irc
from irrcolor.budget import Deadline
from irrcolor.coloring import Coloring, chromatic_number
from irrcolor.errors import PreconditionError, SearchCancelled
from irrcolor.families import generate
from irrcolor.graphs import bits, closed_neighborhood_of_set, from_edge_list
from irrcolor.irc import (
    _obstructed,
    irc_chromatic_number,
    irc_colorability,
    irc_with_k_colors,
    is_irc_coloring,
)
from irrcolor.irredundance import is_irredundant, private_neighbors
from irrcolor.oracle import independent_partitions, oracle_invariant

from conftest import (
    Polls,
    committee_bipartite_graphs,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_bipartite,
    random_connected,
    tree7,
)
from walk_reference import relabeled


def test_is_irc_coloring_preconditions():
    c4 = cycle(4)
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 0, 1, 1)))  # improper
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 1)))  # wrong length


def test_c4_two_coloring_is_committee_safe():
    verdict = is_irc_coloring(cycle(4), Coloring((0, 1, 0, 1)))
    assert verdict.is_irc and verdict.violating_rc is None


def test_verifier_checks_the_bare_definition_not_the_degree_convention():
    k1_c4 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0)])  # vertex 4 isolated
    for g, col in ((k1_c4, Coloring((0, 1, 0, 1, 2))), (complete(1), Coloring((0,)))):
        assert is_irc_coloring(g, col).is_irc
        assert irc_colorability(g) is None
        assert oracle_invariant(g, "irc_colorable").value is False


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


def test_committee_search_has_no_depth_limit():
    # one search node per placed vertex, far past the interpreter's
    # recursion limit, which the search leaves as it found it
    g = cycle(1100)
    limit = sys.getrecursionlimit()
    k, col = irc_chromatic_number(g)
    assert k == 2 and is_irc_coloring(g, col).is_irc
    assert irc_colorability(g).k == 2
    assert sys.getrecursionlimit() == limit


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


def test_cover_matches_the_product_over_classes():
    # _cover finds members, at most one per class j < created outside the
    # bit set used, whose closed neighborhoods cover the target exactly when
    # some choice from the product over those classes does, and returns them
    # as one mask; 0 for an empty target, which a caller must tell apart
    # from None.  The classes in used, an empty class and a class at created
    # supply no member.  A target beyond the eligible classes' reach has no
    # cover; the caller tests for it and _cover is not called
    from itertools import product

    rng = random.Random(67)
    outcomes = Counter()
    for _ in range(300):
        g = random_connected(rng, rng.randint(3, 9), rng.choice((0.25, 0.4, 0.6)))
        closed = [g.closed(v) for v in range(g.n)]
        labels = [rng.randrange(-1, 5) for _ in range(g.n)]  # -1: in no class; 4: at created
        masks = [sum(1 << v for v in range(g.n) if labels[v] == c) for c in range(5)]
        excluded = rng.sample(range(4), rng.randrange(3))
        used = sum(1 << j for j in excluded)
        eligible = [masks[j] for j in range(4) if j not in excluded]
        within = closed_neighborhood_of_set(g, sum(eligible))
        outcomes[f"{len(excluded)} used"] += 1
        outcomes["a class empty"] += not all(eligible)
        for target in (0, rng.randrange(1, 1 << g.n), g.vertices, within):
            # each eligible class gives one member or none
            picks = product(*[[0, *(1 << u for u in bits(m))] for m in eligible])
            coverable = any(not target & ~closed_neighborhood_of_set(g, sum(p)) for p in picks)
            if target & ~within:
                assert not coverable
                outcomes["outside"] += 1
                continue
            picked = irc._cover(closed, masks, 4, used, target)
            if picked is None:
                assert not coverable
                outcomes["none"] += 1
                continue
            assert all((picked & m).bit_count() <= 1 for m in eligible)
            assert not picked & ~sum(eligible)
            assert not target & ~closed_neighborhood_of_set(g, picked)
            outcomes["found" if target else "empty"] += 1
    assert outcomes["empty"] >= 300 and outcomes["outside"] > 20  # every empty target gave 0
    assert outcomes["none"] > 50 and outcomes["found"] > 50
    assert min(outcomes[f"{k} used"] for k in range(3)) > 50 and outcomes["a class empty"] > 50


# --- the check's kernel against the one that ranked each class's members ---


def _reference_cover(closed, classes, reach, target):
    """``irc._cover`` as it was when it tried the members covering more of
    what is left first, ties toward the lowest index."""
    suffix = list(accumulate(reversed(reach), or_, initial=0))[::-1]

    def rec(j, remaining):
        if not remaining:
            return 0
        rest = suffix[j + 1]
        for u in sorted(bits(classes[j]), key=lambda u: -(closed[u] & remaining).bit_count()):
            left = remaining & ~closed[u]
            if not left & ~rest:
                picked = rec(j + 1, left)
                if picked is not None:
                    return picked | 1 << u
        return None

    return rec(0, target)


def _reference_committee_fault(g):
    """``irc._committee_fault`` as it was with ``_reference_cover``: the
    same tables, the two-neighbor test through ``all`` and the eligible
    classes as an index list."""
    n = g.n
    closed = [g.closed(v) for v in range(n)]
    prefix = list(accumulate(closed, or_, initial=0))
    complete_at = [[] for _ in range(n)]
    for u in range(n):
        if g.adj[u]:
            complete_at[g.adj[u].bit_length() - 1].append(u)
    victims = []
    for i in range(n):
        row = [] if closed[i] & ~prefix[i] else [(i, closed[i])]
        between = 0
        for v in range(i - 1, -1, -1):
            target = closed[v] & ~closed[i]
            if closed[v] & closed[i] and not target & ~(prefix[v] | between):
                row.append((v, target))
            between |= closed[v]
        victims.append(row)

    def fault(i, created, masks, colors, union, inter, cap):
        for u in complete_at[i]:
            if all((g.adj[u] & masks[j]).bit_count() <= 1 for j in range(created)):
                return u, closed[u]
        c = colors[i]
        for v, target in victims[i]:
            cv = colors[v]
            if cv == c and v != i:
                continue
            eligible, reach = [], 0
            for j in range(created):
                if j != c and j != cv:
                    eligible.append(j)
                    reach |= union[j]
            if target & ~reach:
                continue
            picked = _reference_cover(closed, [masks[j] for j in eligible], [union[j] for j in eligible], target)
            if picked is not None:
                return v, picked | 1 << v | 1 << i
        return None

    return fault


def test_check_finds_a_fault_exactly_when_the_reference_does(monkeypatch, connected_le6, bipartite_le7):
    """Every call of the committee check inside both committee searches
    against the reference check: a fault at the same placements, with the
    same victim, and a reported committee that has at most one member per
    class and silences its victim.  Only the members may differ, since the
    cover search now branches on the lowest vertex left to cover."""
    real = irc._committee_fault
    kinds = Counter()

    def checked(g):
        fault, reference = real(g), _reference_committee_fault(g)

        def both(i, created, masks, colors, union, inter, cap):
            hit = fault(i, created, masks, colors, union, inter, cap)
            want = reference(i, created, masks, colors, union, inter, cap)
            assert (hit is None) == (want is None)
            if hit is None:
                kinds["none"] += 1
                return None
            victim, rc = hit
            assert victim == want[0]
            assert private_neighbors(g, victim, rc) == 0
            assert all((rc & m).bit_count() <= 1 for m in masks[:created])
            if rc == g.closed(victim):
                kinds["two neighbors"] += 1
            else:
                kinds["victim placed" if victim == i else "earlier victim"] += 1
                kinds["members differ"] += rc != want[1]
            return hit

        return both

    monkeypatch.setattr(irc, "_committee_fault", checked)
    rng = random.Random("kernel-differential")
    seeded = [random_bipartite(rng, rng.randint(8, 12), rng.choice((0.3, 0.6, 0.9))) for _ in range(40)]
    relabelled = [relabeled(g, rng) for g in committee_bipartite_graphs() for _ in range(3)]
    families = [generate(kind, param).graph for kind, param in (("tilde", 3), ("cut_vertex", 3),
                                                                   ("bipartite_star_of_cycles", 4))]
    for g in connected_le6 + bipartite_le7 + seeded + relabelled + families:
        irc_chromatic_number(g)
        irc_colorability(g)
    assert min(kinds[kind] for kind in ("none", "two neighbors", "victim placed", "earlier victim")) > 1000
    assert kinds["members differ"] > 100


def test_check_reports_a_victim_whose_cover_is_empty():
    # N[0] lies within N[1], so once 1 is placed every committee through 0
    # and 1 silences 0: the cover of N[0] - N[1] is the empty mask, not None
    g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    union, inter = [g.closed(0), g.closed(1)], [g.closed(0), g.closed(1)]
    assert irc._committee_fault(g)(1, 2, [0b01, 0b10], [0, 1, -1, -1], union, inter, 3) == (0, 0b11)
    assert is_irc_coloring(g, Coloring((0, 1, 2, 0))) == irc.IrcVerdict(False, 0b111, 0)


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


def test_clique_walk_skips_triangle_free_graphs_without_leaves():
    # no vertex lies on a triangle or has degree below 2, so the pool is
    # empty; the walk over the whole graph polled 43 and 15 times
    for g in (complete_bipartite(6, 6), cycle(8)):
        token = Polls()
        assert not _obstructed(g, token)
        assert token.polls == 0


def _reference_obstruction(g):
    """How the definition rules out every committee-safe coloring of g:
    "low degree" (n = 0 or a vertex of degree at most 1), else "simplicial"
    (a blocking maximal clique that is some N[v]), else "clique" (another
    blocking maximal clique), else None.  A maximal clique blocks when it
    has two or more members and one without a private neighbor in it; the
    maximal cliques come from subset enumeration."""
    if g.n == 0 or any(g.degree(v) <= 1 for v in range(g.n)):
        return "low degree"

    def is_clique(q):
        return all(g.adj[v] | 1 << v | ~q == -1 for v in bits(q))

    blocking = [
        q for q in range(1, 1 << g.n)
        if q.bit_count() >= 2 and is_clique(q)
        and not any(is_clique(q | 1 << v) for v in range(g.n) if not q >> v & 1)
        and any(private_neighbors(g, v, q) == 0 for v in bits(q))
    ]
    if any(g.closed(v) in blocking for v in range(g.n)):
        return "simplicial"
    return "clique" if blocking else None


def _seeded_with_triangles():
    """Seeded connected graphs at n = 8..10 with minimum degree at least 2
    and a triangle, eight per n: the clique stages decide these."""
    for n in (8, 9, 10):
        rng, found = random.Random(f"min-degree-2-and-triangles:{n}"), 0
        while found < 8:
            g = random_connected(rng, n, 0.6)
            if g.min_degree() >= 2 and any(g.adj[u] & g.adj[v] for u, v in g.edges()):
                found += 1
                yield g


def test_obstructed_matches_the_definition(connected_le6, bipartite_le7):
    # the cheap check against subset enumeration; the committee references
    # call _obstructed, so this is its one independent check
    split = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 1), (4, 2)])
    seeded = list(_seeded_with_triangles())
    small = [from_edge_list(0, []), tree7(), cycle(4), split]
    for g in connected_le6 + bipartite_le7 + seeded + small:
        assert _obstructed(g) == (_reference_obstruction(g) is not None)
    assert [_reference_obstruction(g) for g in small] == ["low degree", "low degree", None, "simplicial"]
    assert Counter(map(_reference_obstruction, seeded)) == {"simplicial": 11, "clique": 13}
    # every stage decides some of the connected graphs on up to six
    # vertices, and the walk also runs on two that it finds unobstructed
    decided = [_reference_obstruction(g) for g in connected_le6]
    assert Counter(decided) == {"low degree": 67, "simplicial": 47, "clique": 18, None: 11}
    assert sum(
        1 for g, how in zip(connected_le6, decided)
        if how is None and any(g.adj[u] & g.adj[v] for u, v in g.edges())
    ) == 2


# --- the committee search against the leaf-only, per-k search it replaced ----


def _reference_violation(g, class_masks):
    """The old leaf verifier: (victim, committee) with pn[victim, committee]
    empty, else None."""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    color_of = [0] * g.n
    for c, m in enumerate(class_masks):
        for v in bits(m):
            color_of[v] = c
    for v in range(g.n):
        if g.degree(v) >= 1 and all((g.adj[v] & m).bit_count() <= 1 for m in class_masks):
            rc = closed[v]
            for m in class_masks:
                if not rc & m:
                    rc |= m & -m
            return v, rc
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        others = [list(bits(m)) for c, m in enumerate(class_masks) if c != color_of[v]]

        def cover(idx, remaining, chosen):
            if idx == len(others):
                return list(chosen) if remaining == 0 else None
            potential = 0
            for lst in others[idx:]:
                for u in lst:
                    potential |= closed[u]
            if remaining & ~potential:
                return None
            for u in sorted(others[idx], key=lambda u: (-(closed[u] & remaining).bit_count(), u)):
                found = cover(idx + 1, remaining & ~closed[u], chosen + [u])
                if found is not None:
                    return found
            return None

        picked = cover(0, closed[v], [])
        if picked is not None:
            return v, sum(1 << u for u in picked) | 1 << v
    return None


def _reference_with_k(g, k):
    """The first canonical proper k-partition whose committees are all
    irredundant, checking committees at the complete partitions only."""
    n = g.n
    if _obstructed(g) or not 1 <= k <= n:
        return None
    complete_at = [[] for _ in range(n)]
    for u in range(n):
        complete_at[g.adj[u].bit_length() - 1].append(u)
    colors = [-1] * n
    masks = [0] * k

    def rec(i, created):
        if n - i < k - created:
            return None
        if i == n:
            return Coloring(tuple(colors))
        for c in range(min(created + 1, k)):
            if masks[c] & g.adj[i]:
                continue
            colors[i] = c
            masks[c] |= 1 << i
            nxt = max(created, c + 1)
            ok = all(any((g.adj[u] & m).bit_count() >= 2 for m in masks) for u in complete_at[i])
            if ok and (i < n - 1 or nxt < k or _reference_violation(g, masks) is None):
                found = rec(i + 1, nxt)
                if found is not None:
                    return found
            colors[i] = -1
            masks[c] ^= 1 << i
        return None

    return rec(0, 0)


def _reference_colorability(g):
    if _obstructed(g):
        return None
    chi, _ = chromatic_number(g)
    return next(filter(None, (_reference_with_k(g, k) for k in range(chi, g.n + 1))), None)


def _reference_chromatic_number(g):
    if _obstructed(g):
        return None
    chi, _ = chromatic_number(g)
    for k in range(g.n - 1, chi - 1, -1):
        col = _reference_with_k(g, k)
        if col is not None:
            return k, col
    return None


def _seeded_bipartite():
    for n in (8, 9, 10):
        for p in (0.3, 0.6, 0.8):
            rng = random.Random(f"differential:{n}:{p}")
            yield from (random_bipartite(rng, n, p) for _ in range(2))


def _assert_matches_reference(g):
    assert irc_chromatic_number(g) == _reference_chromatic_number(g)
    assert irc_colorability(g) == _reference_colorability(g)
    for k in range(1, g.n + 1):
        assert irc_with_k_colors(g, k) == _reference_with_k(g, k)


def test_committee_search_matches_reference_on_assets(connected_le6, bipartite_le7):
    for g in connected_le6 + bipartite_le7:
        _assert_matches_reference(g)


def test_committee_search_matches_reference_on_seeded_bipartite():
    for g in _seeded_bipartite():
        _assert_matches_reference(g)


@pytest.mark.parametrize("kind, param", [("tilde", 3), ("cut_vertex", 3), ("bipartite_star_of_cycles", 4)])
def test_committee_search_matches_reference_on_families(kind, param):
    # 27 to 36 vertices: the reference's per-k search runs for seconds to
    # minutes at k between the fewest colors + 1 and n - 8, and so does its
    # chi_irc; the family's claimed chi_irc stands in for it
    inst = generate(kind, param)
    g = inst.graph
    fewest = _reference_colorability(g)
    assert irc_colorability(g) == fewest
    for k in [*range(1, fewest.k + 1), *range(g.n - 7, g.n + 1)]:
        assert irc_with_k_colors(g, k) == _reference_with_k(g, k)
    k, col = irc_chromatic_number(g)
    claim = inst.claims["chi_irc"]
    assert k == claim.value if claim.exact else k >= claim.value
    assert is_irc_coloring(g, col).is_irc
    if k == fewest.k:
        assert col == fewest


def test_chi_irc_on_cut_vertex_4():
    # n = 41, past the oracle's cap and the reference search's reach: the
    # family's claim is a lower bound, both witnesses pass the replayed check
    # and the old whole-coloring verifier, and the polls are pinned, so a
    # committee check that decides differently shows here
    inst = generate("cut_vertex", 4)
    g = inst.graph
    first, fewest = Polls(), Polls()
    k, col = irc_chromatic_number(g, first)
    least = irc_colorability(g, fewest)
    assert k >= inst.claims["chi_irc"].value == 3
    for witness in (col, least):
        assert is_irc_coloring(g, witness).is_irc
        assert _reference_violation(g, witness.classes()) is None
    assert (first.polls, fewest.polls) == (28_562, 55)


def test_verdict_matches_the_reference_verifier(connected_le6, bipartite_le7):
    # the verdict of the replayed placement check against the old whole-
    # coloring verifier, on every partition of both assets and of one graph
    # whose only victim is the vertex placed last, and the first 40 per
    # class count of seeded 7- to 9-vertex graphs; a reported committee has
    # one member per class and a victim without a private neighbor
    rng = random.Random(61)
    seeded = [random_connected(rng, rng.randint(7, 9), 0.5) for _ in range(30)]
    # K(4,2) on {0..3} and {4, 5}, and vertex 6 joined to 1 and 3: under
    # (0, 0, 0, 0, 1, 1, 2) only the committees {1 or 3, 4 or 5, 6} violate,
    # each with victim 6
    last_victim = from_edge_list(7, [(u, v) for u in range(4) for v in (4, 5)] + [(1, 6), (3, 6)])
    assert not is_irc_coloring(last_victim, Coloring((0, 0, 0, 0, 1, 1, 2))).is_irc
    runs = [(g, None) for g in connected_le6 + bipartite_le7 + [last_victim]] + [(g, 40) for g in seeded]
    checked = 0
    for g, first in runs:
        for k in range(1, g.n + 1):
            for col in islice(independent_partitions(g, k), first):
                verdict = is_irc_coloring(g, col)
                assert verdict.is_irc == (_reference_violation(g, col.classes()) is None)
                if not verdict.is_irc:
                    rc, victim = verdict.violating_rc, verdict.violating_vertex
                    assert all((rc & m).bit_count() == 1 for m in col.classes())
                    assert rc >> victim & 1 and private_neighbors(g, victim, rc) == 0
                checked += 1
    assert checked == 13_319


def test_colorability_ascends_past_chi(monkeypatch):
    # no known graph is committee-colorable only with more than chi colors
    # (one would refute the conjecture `scan conjecture` looks for), so a
    # check that also rejects every partition into at most `fewest` classes
    # stands in for one; chi = 2 and chi_irc = 4 here
    g = generate("bipartite_star_of_cycles", 4).graph
    real = irc._committee_fault
    for fewest in (2, 3):
        def fault_at_most(g, fewest=fewest):
            fault = real(g)
            return lambda i, created, masks, colors, union, inter, cap: (
                fault(i, created, masks, colors, union, inter, cap) or (i == g.n - 1 and created <= fewest))

        monkeypatch.setattr(irc, "_committee_fault", fault_at_most)
        col = irc_colorability(g)
        assert col.k == fewest + 1
        assert col == irc_with_k_colors(g, fewest + 1)
        assert all(irc_with_k_colors(g, k) is None for k in range(1, fewest + 1))


# (seed, polls) for random_bipartite(random.Random(seed), 11, 0.6); the
# search that checked committees at the leaves only, one k at a time, polled
# 8,494, 6,937 and 10,949 times on these, and the clique walk over the whole
# graph added 28, 28 and 27 to the 195, 39 and 34 of the search
_PINNED_POLLS = [(0, 195), (1, 39), (2, 34)]


def test_irc_chromatic_number_checks_committees_inside_one_search(monkeypatch):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(irc, "is_irc_coloring")
    spy(coloring, "chromatic_number")  # every chi computation, irc's included
    for seed, polls in _PINNED_POLLS:
        token = Polls()
        assert irc_chromatic_number(random_bipartite(random.Random(seed), 11, 0.6), token) is not None
        assert token.polls <= polls
    assert calls == []


def test_committee_bipartite_polls_are_pinned():
    # the benchmark workload's 15 base graphs in base order, one token per
    # search: the committee check may get cheaper, but it must decide as it
    # does now, and so poll as often
    chi_irc = colorable = 0
    for g in committee_bipartite_graphs():
        first, fewest = Polls(), Polls()
        irc_chromatic_number(g, first)
        irc_colorability(g, fewest)
        chi_irc += first.polls
        colorable += fewest.polls
    assert (chi_irc, colorable) == (3_372, 187)


def test_irc_chromatic_number_polls_the_budget():
    g = random_bipartite(random.Random(0), 11, 0.6)
    token = Polls(50)
    with pytest.raises(SearchCancelled):
        irc_chromatic_number(g, token)
    assert token.polls == 50
    # this graph runs for minutes without a budget
    g = random_bipartite(random.Random("n16:0.9"), 16, 0.9)
    t0 = time.monotonic()
    with pytest.raises(SearchCancelled):
        irc_chromatic_number(g, Deadline(0.5))
    assert time.monotonic() - t0 < 1.0


def test_verifier_polls_once_per_placement_and_shares_the_check(monkeypatch):
    g = generate("bipartite_star_of_cycles", 4).graph
    col = irc_colorability(g)
    token = Polls()
    assert is_irc_coloring(g, col, token).is_irc
    assert token.polls == g.n
    token = Polls(20)
    with pytest.raises(SearchCancelled):
        is_irc_coloring(g, col, token)
    assert token.polls == 20
    # one scope builds the check's tables once for the search and the verifier
    builds = []
    real = irc._committee_fault
    monkeypatch.setattr(irc, "_committee_fault", lambda g: builds.append(g) or real(g))
    scope = budget.Scope()
    assert is_irc_coloring(g, irc_colorability(g, scope), scope).is_irc
    assert builds == [g]
