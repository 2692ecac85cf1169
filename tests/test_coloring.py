import random
import time
from itertools import combinations

import pytest

from irrcolor import budget, coloring, irc, irredundance
from irrcolor.budget import Deadline
from irrcolor.coloring import (
    Coloring,
    RainbowCert,
    add_clique,
    chromatic_number,
    dominator_chromatic_number,
    gamma_chromatic_number,
    global_dominator_chromatic_number,
    irredundance_chromatic_number,
    is_proper,
    is_rainbow,
    max_clique,
)
from irrcolor.errors import ParameterError, SearchCancelled
from irrcolor.claims import _FULL_DEGREE
from irrcolor.families import gen_family_z, generate
from irrcolor.graphs import from_edge_list, mask_from, parse_graph6
from irrcolor.irredundance import (
    gamma_number,
    ir_number,
    is_dominating,
    is_irredundant,
    is_maximal_irredundant,
    maximal_irredundant_sets,
    minimal_dominating_sets,
)
from irrcolor.oracle import oracle_invariant

from chi_reference import reference_chromatic_number
from conftest import (
    Polls,
    assert_frozen_value,
    committee_bipartite_graphs,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_bipartite,
    random_connected,
    random_graph,
    spy,
    spy_walks,
    tree7,
    walk_built,
    walk_depths,
    walk_nodes,
)
from walk_reference import relabeled


def test_coloring_type():
    c = Coloring((1, 0, 1))
    assert c.k == 2 and Coloring(()).k == 0  # k counts the distinct ids
    assert c.classes() == [mask_from([1]), mask_from([0, 2])]
    assert c.canonical() == Coloring((0, 1, 0))
    for color_of in ((0, 2), (1, 1), (-1, 0)):  # color 1 unused, color 0 unused, a negative id
        with pytest.raises(ValueError, match="out of range"):
            Coloring(color_of)


def test_coloring_is_a_frozen_value():
    c = Coloring((0, 1, 0))
    assert_frozen_value(c, Coloring((1, 0, 1)).canonical())
    assert repr(c) == "Coloring(color_of=(0, 1, 0))"
    assert c != Coloring((0, 1, 1)) and c != Coloring((0, 1, 2))
    assert_frozen_value(Coloring([0, 1, 0]), c)  # a list is stored as a tuple


def test_is_rainbow():
    c = Coloring((0, 1, 0, 1))
    assert is_rainbow(c, mask_from([0]))
    assert is_rainbow(c, mask_from([0, 1]))
    assert not is_rainbow(c, mask_from([0, 2]))


def test_max_clique():
    assert max_clique(complete(5)) == mask_from(range(5))
    assert max_clique(cycle(5)).bit_count() == 2
    assert max_clique(from_edge_list(1, [])) == 1


def test_chromatic_number_basics():
    for n in range(1, 7):
        k, col = chromatic_number(complete(n))
        assert k == n and is_proper(complete(n), col)
    for m in range(1, 4):
        for n in range(1, 4):
            assert chromatic_number(complete_bipartite(m, n))[0] == 2
    assert chromatic_number(cycle(5))[0] == 3
    assert chromatic_number(cycle(6))[0] == 2
    k, col = chromatic_number(tree7())
    assert k == 2 and col.k == 2 and is_proper(tree7(), col)


def test_chromatic_number_matches_oracle():
    rng = random.Random(61)
    for _ in range(30):
        g = random_connected(rng, rng.randint(1, 7))
        assert chromatic_number(g)[0] == oracle_invariant(g, "chi").value


def test_chromatic_number_matches_the_reference(connected_le6, bipartite_le7):
    """The same value, witness and polls as the search that kept no
    saturation table, so the same decisions at every node."""
    rng = random.Random(67)
    graphs = [*connected_le6, *bipartite_le7]
    graphs += [add_clique(g, ir_number(g)[1]) for g in graphs]
    graphs += [random_graph(rng, n, tenths / 10) for n in range(0, 31) for tenths in range(1, 10)]
    for g in graphs:
        fast, slow = Polls(), Polls()
        assert chromatic_number(g, fast) == reference_chromatic_number(g, slow)
        assert fast.polls == slow.polls


def test_a_two_colour_greedy_pass_skips_the_clique_search(monkeypatch):
    """An edge needs two colors and an edgeless graph one, so a greedy pass
    that uses at most two is optimal and no clique is searched."""
    cliques = []
    spy(monkeypatch, coloring, "max_clique", cliques)
    for g in (from_edge_list(5, []), complete_bipartite(3, 4), cycle(14), tree7(), *committee_bipartite_graphs()):
        k, col = chromatic_number(g)
        assert k == col.k == (2 if g.m else 1) and is_proper(g, col)
    assert cliques == []
    assert chromatic_number(cycle(5))[0] == 3 and len(cliques) == 1


def _seeded_gnp(n, p):
    return random_graph(random.Random(f"{n}:{p}"), n, p)


def test_chromatic_number_polls_the_budget():
    for n, p, polls in ((45, 0.5, 563), (60, 0.2, 10_845)):
        token = Polls()
        chromatic_number(_seeded_gnp(n, p), token)
        assert token.polls == polls
    token = Polls(50)
    with pytest.raises(SearchCancelled):
        chromatic_number(_seeded_gnp(45, 0.5), token)
    assert token.polls == 50
    # this graph takes seconds without a budget
    t0 = time.monotonic()
    with pytest.raises(SearchCancelled):
        chromatic_number(_seeded_gnp(60, 0.5), Deadline(0.5))
    assert time.monotonic() - t0 < 1.0


def test_add_clique():
    c4 = cycle(4)
    g = add_clique(c4, mask_from([0, 1, 2]))
    assert g.adj[0] >> 2 & 1
    assert g.m == c4.m + 1


def test_add_clique_rejects_a_set_outside_the_graph():
    c4 = cycle(4)
    for s in (1 << 4, mask_from([0, 5]), -1):
        with pytest.raises(ParameterError):
            add_clique(c4, s)


def test_chi_i_full_degree_equals_chi(connected_le6, bipartite_le7):
    for n in range(2, 7):
        k, cert = irredundance_chromatic_number(complete(n))
        assert k == n
        assert is_maximal_irredundant(complete(n), cert.rainbow_set)
    star = from_edge_list(5, [(0, i) for i in range(1, 5)])
    assert irredundance_chromatic_number(star)[0] == 2
    # the general path certifies chi's coloring with the lowest full-degree
    # vertex: the maximal irredundant singletons are the full-degree vertices
    specs = (*_FULL_DEGREE, *(("B", params) for params in ((6, 4), (5, 2), (6, 6), (8, 3))))
    instances = [generate(kind, *params).graph for kind, params in specs]
    checked = 0
    for g in (*connected_le6, *bipartite_le7, *instances):
        full = [v for v in range(g.n) if g.degree(v) == g.n - 1]
        if not full:
            continue
        chi, col = chromatic_number(g)
        expected = (chi, RainbowCert(col, 1 << full[0]))
        assert irredundance_chromatic_number(g) == irredundance_chromatic_number(g, budget.scope(None)) == expected
        checked += 1
    assert checked == 53 + 7 + len(instances)


def test_chi_i_examples():
    assert irredundance_chromatic_number(tree7())[0] == 3
    for m in range(2, 5):
        for n in range(2, 5):
            assert irredundance_chromatic_number(complete_bipartite(m, n))[0] == 2
    assert irredundance_chromatic_number(cycle(4))[0] == 2


def test_chi_i_cert_is_valid():
    rng = random.Random(71)
    for _ in range(25):
        g = random_connected(rng, rng.randint(1, 7))
        k, cert = irredundance_chromatic_number(g)
        assert cert.coloring.k == k
        assert is_proper(g, cert.coloring)
        assert is_rainbow(cert.coloring, cert.rainbow_set)
        assert is_maximal_irredundant(g, cert.rainbow_set)


def test_chi_gamma_examples():
    for n in range(1, 6):
        assert gamma_chromatic_number(complete(n))[0] == n
    k, cert = gamma_chromatic_number(cycle(4))
    assert k == 2
    assert is_dominating(cycle(4), cert.rainbow_set)


def test_rainbow_closed_forms_on_paths_and_cycles():
    """chi_i = chi_gamma = max(chi, ceil(n/3)) on P_n and C_n for n >= 7,
    where ceil(n/3) >= 3 >= chi.  Let k = ceil(n/3) = ir = gamma.
    - chi_i >= max(chi, ir) = k.
    - Give a minimum dominating set k distinct colors and extend greedily:
      a vertex has at most 2 neighbors, so one of k >= 3 colors is free.
      Hence chi_gamma <= k.
    - A minimal dominating set is maximal irredundant (Cockayne, Hedetniemi
      and Miller, 1978), so chi_i <= chi_gamma."""
    for n in range(7, 17):
        for g in (path(n), cycle(n)):
            scope = budget.Scope()  # one chi and one walk for both
            bound = max(coloring._chi(g, scope)[0], -(-n // 3))
            assert irredundance_chromatic_number(g, scope)[0] == gamma_chromatic_number(g, scope)[0] == bound


def test_chi_d_examples():
    for n in range(1, 6):
        assert dominator_chromatic_number(complete(n))[0] == n
    # C_4 = K_{2,2}: both classes of the 2-coloring are dominated by every
    # vertex of the other side
    assert dominator_chromatic_number(cycle(4))[0] == 2
    assert dominator_chromatic_number(cycle(4))[0] == oracle_invariant(cycle(4), "chi_d").value


def test_chi_gd_examples():
    assert global_dominator_chromatic_number(cycle(4))[0] == 4
    assert global_dominator_chromatic_number(path(4))[0] == 4
    assert oracle_invariant(cycle(4), "chi_gd").value == 4
    assert oracle_invariant(path(4), "chi_gd").value == 4
    for n in range(2, 6):
        assert global_dominator_chromatic_number(complete(n)) is None
    with pytest.raises(ParameterError):
        global_dominator_chromatic_number(complete(1))


def test_chain_holds_on_random_graphs():
    rng = random.Random(83)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 7))
        chi = chromatic_number(g)[0]
        chi_i = irredundance_chromatic_number(g)[0]
        chi_g = gamma_chromatic_number(g)[0]
        chi_d = dominator_chromatic_number(g)[0]
        assert chi <= chi_i <= chi_g <= chi_d
        gd = global_dominator_chromatic_number(g)
        if gd is not None:
            assert chi_d <= gd[0]


def test_partition_solvers_match_oracle():
    rng = random.Random(97)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 7))
        assert dominator_chromatic_number(g)[0] == oracle_invariant(g, "chi_d").value
        gd = global_dominator_chromatic_number(g)
        assert (gd[0] if gd else None) == oracle_invariant(g, "chi_gd").value


def _alive(g, v, created, cap, remaining, masks, anti):
    """Vertex v dominates one of the ``created`` classes in ``masks`` (and
    with ``anti`` also avoids one), or, while fewer than ``cap`` classes
    exist, can still do so through a class opened by a vertex of
    ``remaining``."""
    nb, closed = g.adj[v], g.closed(v)
    more = created < cap
    dom = any(m & ~nb == 0 or m == 1 << v for m in masks[:created]) or (more and nb & remaining)
    avoid = any(m & closed == 0 for m in masks[:created]) or (more and remaining & ~closed)
    return bool(dom and (avoid or not anti))


def _reference_with_k(g, k, anti):
    """The first canonical proper k-partition in which every vertex
    dominates a class (and with ``anti`` also avoids one), pruning every
    prefix a vertex can no longer satisfy with at most k classes."""
    n = g.n
    later = [(g.vertices >> (i + 1)) << (i + 1) for i in range(n)]
    colors = [-1] * n
    masks = [0] * k

    def rec(i, created):
        if created + n - i < k:
            return None
        if i == n:
            return Coloring(tuple(colors))
        for c in range(min(created + 1, k)):
            if masks[c] & g.adj[i]:
                continue
            colors[i] = c
            masks[c] |= 1 << i
            nxt = max(created, c + 1)
            if all(_alive(g, v, nxt, k, later[i], masks, anti) for v in range(i + 1)):
                found = rec(i + 1, nxt)
                if found is not None:
                    return found
            colors[i] = -1
            masks[c] ^= 1 << i
        return None

    return rec(0, 0)


def _reference_dominator(g, anti):
    """The per-k climb from chi: the first k with a partition, and it."""
    chi, _ = chromatic_number(g)
    return next(((k, col) for k in range(chi, g.n + 1) if (col := _reference_with_k(g, k, anti))), None)


def test_dominator_search_matches_reference(connected_le6, bipartite_le7):
    graphs = connected_le6 + bipartite_le7 + [cycle(12), path(12), cycle(14), path(14)]
    for n in range(8, 13):
        for p in (0.2, 0.4):
            rng = random.Random(f"dominator-differential:{n}:{p}")
            graphs += [random_connected(rng, n, p) for _ in range(2)]
    for g in graphs:
        assert dominator_chromatic_number(g) == _reference_dominator(g, anti=False)
        if g.n >= 2:
            assert global_dominator_chromatic_number(g) == _reference_dominator(g, anti=True)


def test_dominator_fits_agrees_with_the_per_vertex_rule(monkeypatch, connected_le6, bipartite_le7):
    """The class-table check returns, at every placement, exactly the placed
    vertices that fail ``_alive``."""
    search = coloring._restricted_growth_search
    calls = 0

    def checked(g, lo, hi, fault, token=None, fewest=False):
        later = [(g.vertices >> (i + 1)) << (i + 1) for i in range(g.n)]

        def both(i, created, masks, colors, union, inter, cap):
            nonlocal calls
            calls += 1
            failing = fault(i, created, masks, colors, union, inter, cap)
            assert failing == sum(1 << v for v in range(i + 1) if not _alive(g, v, created, cap, later[i], masks, anti))
            return failing

        return search(g, lo, hi, both, token, fewest)

    monkeypatch.setattr(coloring, "_restricted_growth_search", checked)
    graphs = connected_le6 + bipartite_le7 + [cycle(12), path(12)]
    for n in range(8, 13):
        for p in (0.2, 0.4):
            rng = random.Random(f"dominator-differential:{n}:{p}")
            graphs += [random_connected(rng, n, p) for _ in range(2)]
    for g in graphs:
        scope = budget.Scope()  # chi_gd reads chi_d from it and runs one search
        anti = False
        dominator_chromatic_number(g, scope)
        if g.n >= 2:
            anti = True
            global_dominator_chromatic_number(g, scope)
    assert calls > 0


# polls of chi_d, and of chi_gd in the same Scope after it, on C14, P14 and
# three sparse 12-vertex graphs.  chi_gd searches from chi_d; from chi it
# polled 973 / 763 / 488 / 221 / 1,436.  The climb that restarted the search
# at each k from chi polled 1,185 / 954 / 605 / 156 / 439 and 1,178 / 947 /
# 536 / 299 / 1,679
_PINNED_POLLS = [
    (dominator_chromatic_number, [973, 763, 532, 113, 397]),
    (global_dominator_chromatic_number, [87, 51, 13, 221, 1436]),
]


def _pinned_graphs():
    return [cycle(14), path(14)] + [random_connected(random.Random(f"dominator:{s}"), 12, 0.2) for s in range(3)]


def test_dominator_search_polls_pinned():
    (_, chi_d_polls), (_, chi_gd_polls) = _PINNED_POLLS
    for g, chi_d, chi_gd in zip(_pinned_graphs(), chi_d_polls, chi_gd_polls):
        token = Polls()
        scope = budget.scope(token)
        dominator_chromatic_number(g, scope)
        assert token.polls <= chi_d
        spent = token.polls
        global_dominator_chromatic_number(g, scope)
        assert token.polls - spent <= chi_gd
        # alone, chi_gd pays for chi_d first
        alone = Polls()
        global_dominator_chromatic_number(g, alone)
        assert alone.polls == token.polls


def test_dominator_search_polls_the_budget():
    g = _pinned_graphs()[0]
    for solve, _ in _PINNED_POLLS:
        token = Polls(50)
        with pytest.raises(SearchCancelled):
            solve(g, token)
        assert token.polls == 50


# --- the recursive partition search -------------------------------------------
#
# ``_restricted_growth_search`` as it was when it made one Python call per
# search node.  The loop must make the same ``fault`` calls with the same
# arguments, poll at the same points and return the same partition.


def _reference_restricted_growth_search(g, lo, hi, fault, token=None, fewest=False):
    n = g.n
    if not 1 <= lo <= hi <= n:
        return None
    closed = [g.closed(v) for v in range(n)]
    colors = [-1] * n
    masks = [0] * hi
    union, inter = [0] * hi, [g.vertices] * hi
    best = None

    def rec(i, created):
        nonlocal best, lo, hi
        budget.check(token)
        if created + n - i < lo:
            return False
        if i == n:
            best = Coloring(tuple(colors))
            if fewest:
                hi = created - 1
            else:
                lo = created + 1
            return lo > hi
        here, neighbors = closed[i], g.adj[i]
        for c in range(created + 1):
            nxt = max(created, c + 1)
            if nxt > hi:
                break
            if masks[c] & neighbors:
                continue
            colors[i] = c
            masks[c] |= 1 << i
            was_union, was_inter = union[c], inter[c]
            union[c], inter[c] = was_union | here, was_inter & here
            if not fault(i, nxt, masks, colors, union, inter, hi) and rec(i + 1, nxt):
                return True
            colors[i] = -1
            masks[c] ^= 1 << i
            union[c], inter[c] = was_union, was_inter
        return False

    rec(0, 0)
    return best


class _Logged:
    """A token that logs each poll before it asks the token it wraps."""

    def __init__(self, token, log):
        self.token, self.log = token, log

    def expired(self):
        self.log.append("poll")
        return self.token is not None and self.token.expired()


def _search_solvers(g):
    """The five solvers that run the partition search, as (name, call), with
    irc_with_k_colors at k = chi and chi + 1."""
    chi = chromatic_number(g)[0]
    solvers = [("chi_d", dominator_chromatic_number), ("irc_colorability", irc.irc_colorability),
               ("chi_irc", irc.irc_chromatic_number)]
    if g.n >= 2:
        solvers.append(("chi_gd", global_dominator_chromatic_number))
    for k in range(chi, min(chi + 1, g.n) + 1):
        solvers.append((f"irc_with_{k}_colors", lambda g, token=None, k=k: irc.irc_with_k_colors(g, k, token)))
    return solvers


def _trace(monkeypatch, search, solve, g, token=None):
    """The log of ``solve(g, token)`` with ``search`` as the partition search:
    each poll, each ``fault`` call with its arguments copied, and each
    search's result, in order, then the answer or the ``SearchCancelled``
    raised."""
    log = []

    def logged_search(g, lo, hi, fault, token=None, fewest=False):
        def logged(i, created, masks, colors, union, inter, cap):
            found = fault(i, created, masks, colors, union, inter, cap)
            log.append(("fault", i, created, masks[:], colors[:], union[:], inter[:], cap, found))
            return found

        best = search(g, lo, hi, logged, _Logged(token, log), fewest)
        log.append(best)
        return best

    with monkeypatch.context() as patch:
        patch.setattr(coloring, "_restricted_growth_search", logged_search)
        patch.setattr(irc, "_restricted_growth_search", logged_search)
        try:
            log.append(("answer", solve(g, token)))
        except SearchCancelled:
            log.append("cancelled")
    return log


def test_loop_search_matches_the_recursive_one(monkeypatch, connected_le6, bipartite_le7):
    """Every fault call, poll and answer of chi_d, chi_gd, irc_colorability,
    chi_irc and irc_with_k_colors, loop against recursion."""
    rng = random.Random("loop-differential")
    graphs = [*connected_le6, *bipartite_le7, cycle(14), path(14)]
    graphs += [random_connected(rng, n, 0.3) for n in range(8, 13) for _ in range(2)]
    graphs += [random_bipartite(rng, n, 0.6) for n in range(8, 13) for _ in range(2)]
    graphs += [relabeled(g, rng) for g in committee_bipartite_graphs() for _ in range(3)]
    graphs += [generate(kind, param).graph for kind, param in (("tilde", 3), ("cut_vertex", 3),
                                                               ("bipartite_star_of_cycles", 4))]
    calls = polls = 0
    for g in graphs:
        for name, solve in _search_solvers(g):
            # the dominator searches on the families run for minutes, so
            # they are compared up to a budget
            budgeted = g.n > 14 and name in ("chi_d", "chi_gd")
            loop = _trace(monkeypatch, coloring._restricted_growth_search, solve, g, Polls(1_000) if budgeted else None)
            want = _trace(monkeypatch, _reference_restricted_growth_search, solve, g, Polls(1_000) if budgeted else None)
            assert loop == want, (name, g)
            polls += loop.count("poll")
            calls += sum(entry[0] == "fault" for entry in loop if type(entry) is tuple)
    assert calls > 150_000 and polls > 40_000


def test_loop_search_stops_where_the_recursive_one_does(monkeypatch):
    """Under ``Polls(k)`` for every k up to a whole solve, both searches
    raise at the same poll, after the same fault calls."""
    cancelled_in_search = 0
    for g in (committee_bipartite_graphs()[0], cycle(9)):
        for name, solve in _search_solvers(g):
            whole = Polls()
            assert _trace(monkeypatch, _reference_restricted_growth_search, solve, g, whole)[-1] != "cancelled"
            for k in range(1, whole.polls + 2):
                loop = _trace(monkeypatch, coloring._restricted_growth_search, solve, g, Polls(k))
                assert loop == _trace(monkeypatch, _reference_restricted_growth_search, solve, g, Polls(k)), (name, k)
                cancelled_in_search += loop[-1] == "cancelled" and "poll" in loop
            assert loop[-1] != "cancelled"
    assert cancelled_in_search > 900


def test_rainbow_solvers_match_oracle():
    rng = random.Random(101)
    for _ in range(20):
        g = random_connected(rng, rng.randint(1, 7))
        assert irredundance_chromatic_number(g)[0] == oracle_invariant(g, "chi_i").value
        assert gamma_chromatic_number(g)[0] == oracle_invariant(g, "chi_gamma").value


def test_chi_i_equals_order_only_for_complete_graphs(connected_le6):
    for g in connected_le6:
        is_complete = g.m == g.n * (g.n - 1) // 2
        assert (irredundance_chromatic_number(g)[0] == g.n) == is_complete
    rng = random.Random(113)
    for _ in range(30):
        g = random_connected(rng, 7)
        is_complete = g.m == 21
        assert (irredundance_chromatic_number(g)[0] == 7) == is_complete


# --- the full-family references ---------------------------------------------
#
# Copies of the rainbow solvers as they were when they read every candidate
# from the whole families, and of ir and gamma as they were when each kept
# the smallest accepted set of its own capped walk.  The solvers must give
# the same values and witnesses with and without a scope.


def _reference_min_rainbow(g, chi, candidates):
    ordered = sorted(candidates, key=lambda s: (s.bit_count(), s))
    lower = max(chi, ordered[0].bit_count())
    best = None
    for s in ordered:
        if best is not None and s.bit_count() >= best[0]:
            continue
        k, col = chromatic_number(add_clique(g, s))
        if best is None or k < best[0]:
            best = (k, RainbowCert(col, s))
            if k == lower:
                break
    return best


def _reference_chi_i(g):
    chi, chi_col = chromatic_number(g)
    full = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if full:
        return chi, RainbowCert(chi_col, 1 << full[0])
    return _reference_min_rainbow(g, chi, maximal_irredundant_sets(g))


def _reference_chi_gamma(g):
    return _reference_min_rainbow(g, chromatic_number(g)[0], minimal_dominating_sets(g))


def _reference_smallest(g, size_cap, accept):
    """The first irredundant set of at most ``size_cap`` vertices, in
    ``itertools.combinations`` order, that ``accept`` takes."""
    for size in range(size_cap + 1):
        for combo in combinations(range(g.n), size):
            if is_irredundant(g, mask_from(combo)) and accept(g, mask_from(combo)):
                return mask_from(combo)
    return None


def _differential_graphs(connected_le6, bipartite_le7):
    rng = random.Random(17)
    yield from connected_le6
    yield from bipartite_le7
    for n in range(1, 13):
        for tenths in range(2, 10):
            yield random_graph(rng, n, tenths / 10)
    for n in range(1, 15):
        yield path(n)
        if n >= 3:
            yield cycle(n)
    yield from _FALLBACKS


# The graphs of the set whose rainbow solvers read candidates larger than a
# greedy dominating set, each with the deepest complete layer and the sets
# built of the walks of chi_i and chi_gamma.  Z(3,2): n = 14, greedy size 2, chi = 3, chi_i =
# chi_gamma = 4, so the candidates of three vertices are still read.  The
# G(10, 0.4) graph: greedy size 2, chi = 3, and every candidate of at most
# two vertices needs 4 colors while one of three needs 3, so chi_i =
# chi_gamma = 3 only with the larger candidates.
_FALLBACKS = [gen_family_z(3, 2).graph, parse_graph6("IFBRvMAJ?")]


def test_set_invariants_match_the_full_family_references(monkeypatch, connected_le6, bipartite_le7):
    walks = spy_walks(monkeypatch)
    fallbacks = []
    for g in _differential_graphs(connected_le6, bipartite_le7):
        chi_i, chi_gamma = _reference_chi_i(g), _reference_chi_gamma(g)
        del walks[:]
        assert irredundance_chromatic_number(g) == chi_i
        assert gamma_chromatic_number(g) == chi_gamma
        greedy = irredundance._greedy_dominating(g)
        g0 = greedy.bit_count()
        if max(walk_depths(walks)) >= g0 and max(walk_built(walks)) > sum(walk_nodes(g, g0)):
            fallbacks.append((g, walk_depths(walks), walk_built(walks)))
        scope = budget.scope(None)
        assert (irredundance_chromatic_number(g, scope), gamma_chromatic_number(g, scope)) == (chi_i, chi_gamma)
        ir_set = _reference_smallest(g, greedy.bit_count(), is_maximal_irredundant)
        assert ir_number(g) == ir_number(g, scope) == (ir_set.bit_count(), ir_set)
        gamma_set = _reference_smallest(g, greedy.bit_count() - 1, is_dominating)
        gamma_set = greedy if gamma_set is None else gamma_set
        assert gamma_number(g) == gamma_number(g, scope) == (gamma_set.bit_count(), gamma_set)
    # Z(3,2) has no candidate of three vertices, so both read that layer
    # whole; the G(10, 0.4) graph's are read in mask order up to the one
    # that needs 3 colors
    assert fallbacks == [(_FALLBACKS[0], [3, 3], [312, 312]), (_FALLBACKS[1], [2, 2], [67, 73])]
