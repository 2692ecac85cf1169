"""Per-graph scopes: shared results are computed once per graph, never
kept half-done, and never change an answer."""

import random

import pytest

from irrcolor import budget, coloring, irc, irredundance
from irrcolor.cli import DEFAULT_INVARIANTS, _compute_invariant, _graph_record, _scan_graph
from irrcolor.coloring import (
    chromatic_number,
    dominator_chromatic_number,
    gamma_chromatic_number,
    global_dominator_chromatic_number,
    irredundance_chromatic_number,
)
from irrcolor.errors import SearchCancelled
from irrcolor.graphs import from_edge_list
from irrcolor.invariants import REGISTRY
from irrcolor.irredundance import gamma_number, ir_number, maximal_irredundant_sets
from irrcolor.oracle import cross_check

from conftest import Polls, cycle, rainbow_gnp_graphs, random_connected, spy, spy_walks, walk_built, walk_depths, walk_nodes


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


PINNED = [cycle(7), petersen(), random_connected(random.Random("n12"), 12, 0.4)]


def _complete(key, value) -> bool:
    """True when the memo entry ``key`` holds what the computation gives
    without a scope; for ("walk", g), the layers it has built."""
    kind, g = key
    if kind == "walk":
        return value.layers == list(irredundance._layers(g, None))[:len(value.layers)]
    if kind == "chi":
        return value == chromatic_number(g)
    if kind == "chi_d":
        return (value.k, value) == dominator_chromatic_number(g)
    if kind == "obstructed":
        return value == irc._obstructed(g)
    raise AssertionError(f"unexpected memo key {kind!r}")


def test_cancelled_computations_leave_no_memo_entry():
    # chi_gd reads chi_d through the scope, and a budget that runs out in
    # either search keeps neither
    g = PINNED[2]
    solvers = (irredundance_chromatic_number, gamma_chromatic_number, global_dominator_chromatic_number)
    expected = [solve(g) for solve in solvers]
    total = Polls()
    for solve in solvers:
        solve(g, budget.scope(total))
    cancelled = 0
    for limit in range(1, total.polls + 1, max(1, total.polls // 40)):
        token = Polls(limit)
        scope = budget.scope(token)
        try:
            got = [solve(g, scope) for solve in solvers]
        except SearchCancelled:
            cancelled += 1
        else:
            assert got == expected
        # whatever the scope kept is complete
        assert all(_complete(key, value) for key, value in scope.memo.items())
        token.limit = None  # the budget is live again
        assert [solve(g, scope) for solve in solvers] == expected
    assert cancelled >= 20


def test_cancelled_walk_is_recomputed_on_the_next_request():
    g = PINNED[2]
    whole = list(irredundance._layers(g, None))
    # the first poll is the empty set's, before the walk is kept; the third
    # falls inside the layer of one vertex
    for limit, kept in ((1, None), (3, 1)):
        token = Polls(limit)
        scope = budget.scope(token)
        with pytest.raises(SearchCancelled):
            list(maximal_irredundant_sets(g, scope))
        assert [len(walk.layers) for walk in scope.memo.values()] == ([] if kept is None else [kept])
        token.limit = None
        assert list(maximal_irredundant_sets(g, scope)) == list(maximal_irredundant_sets(g))
        assert list(scope.memo) == [("walk", g)] and scope.memo[("walk", g)].layers == whole


def test_a_walk_cancelled_inside_a_layer_keeps_the_layers_before_it(monkeypatch):
    # a budget that runs out inside layer 2 or later keeps the layers
    # before it, and the same scope then gives the answers a fresh one does
    g = PINNED[2]
    solvers = (ir_number, gamma_number, irredundance_chromatic_number, gamma_chromatic_number)
    expected = [solve(g) for solve in solvers]
    whole = list(irredundance._layers(g, None))
    counted = Polls()
    ends = {}  # size -> the polls when that layer was complete
    grow = irredundance._Walk.grow

    def spied(walk, tok, stop=None):
        size = len(walk.layers)
        grown = grow(walk, tok, stop)
        if len(walk.layers) > size:
            ends.setdefault(size, counted.polls)
        return grown

    def run(scope):
        for solve in solvers[2:]:
            solve(g, scope)
        list(maximal_irredundant_sets(g, scope))

    monkeypatch.setattr(irredundance._Walk, "grow", spied)
    run(budget.scope(counted))
    assert list(ends) == list(range(1, len(whole))) and len(whole) >= 4
    for size in range(2, len(whole)):
        # expires on the second poll after the layer below is complete,
        # inside the layer of ``size`` vertices
        token = Polls(ends[size - 1] + 2)
        scope = budget.scope(token)
        with pytest.raises(SearchCancelled):
            run(scope)
        assert scope.memo[("walk", g)].layers == whole[:size]
        token.limit = None
        assert [solve(g, scope) for solve in solvers] == expected
        assert list(maximal_irredundant_sets(g, scope)) == list(maximal_irredundant_sets(g))
        assert scope.memo[("walk", g)].layers == whole


def test_a_consumer_that_stops_early_leaves_the_whole_family():
    for g in PINNED:
        scope = budget.scope(None)
        first = next(maximal_irredundant_sets(g, scope))
        everything = list(maximal_irredundant_sets(g))
        assert first == everything[0]
        # every layer, and nothing else
        assert list(scope.memo) == [("walk", g)]
        walk = scope.memo[("walk", g)]
        assert walk.layers == list(irredundance._layers(g, None)) and not walk.frontier
        assert list(maximal_irredundant_sets(g, scope)) == everything


def test_one_record_computes_chi_once_and_walks_once(monkeypatch):
    chi_of, greedies = [], []
    spy(monkeypatch, coloring, "chromatic_number", chi_of)
    spy(monkeypatch, irredundance, "_greedy_dominating", greedies)
    walks = spy_walks(monkeypatch)
    depths = []
    for g in PINNED:
        greedy = irredundance._greedy_dominating(g).bit_count()
        for ids in (DEFAULT_INVARIANTS, tuple(REGISTRY)):
            del chi_of[:], walks[:], greedies[:]
            rec = _graph_record(0, g, ids, witnesses=True)
            assert all(cell["status"] in ("ok", "absent") for cell in rec["invariants"].values())
            assert [args[0] for args in chi_of].count(g) == 1
            # ir, gamma, chi_i and chi_gamma read one walk, as deep as the
            # deepest of them reads; gamma finds a greedy dominating set
            assert len(walks) == 1 and len(greedies) == 1
            depths.append((greedy, *walk_depths(walks), *walk_built(walks)))
    # the complete layers and the sets built: on C7 and G(12, 0.4) the
    # layer of ir is built only in part, and on the Petersen graph whole
    assert depths == [(3, 2, 35), (3, 2, 35), (3, 3, 176), (3, 3, 176), (2, 1, 48), (2, 1, 48)]


def test_default_ids_walk_only_the_layers_they_read(monkeypatch):
    # the default six read the layers up to max(ir, gamma, the largest
    # rainbow candidate tried), and of the last one only what ir, gamma and
    # the rainbow solvers' first candidates need; a walk capped at the
    # greedy dominating size g0 walks the g0 layer too on the graphs where
    # gamma < g0.  The whole layers up to the last one read hold 4,683 sets
    walks = spy_walks(monkeypatch)
    built = whole = capped = 0
    for g in rainbow_gnp_graphs():
        del walks[:]
        _graph_record(0, g, DEFAULT_INVARIANTS)
        [depth] = walk_depths(walks)
        g0 = irredundance._greedy_dominating(g).bit_count()
        nodes = walk_nodes(g, max(depth + 1, g0))
        built += sum(walk_built(walks))
        whole += sum(nodes[:depth + 2])
        capped += sum(nodes[:g0 + 1])
    assert (built, whole, capped) == (2479, 4683, 6753)


def test_scan_conjecture_scans_for_obstructions_once(monkeypatch):
    scans, chi_of = [], []
    spy(monkeypatch, irc, "_obstructed", scans)
    spy(monkeypatch, coloring, "chromatic_number", chi_of)
    for g in PINNED:
        del scans[:], chi_of[:]
        rec, _ = _scan_graph(0, g, "conjecture", None, oracle_cap=8)
        assert rec["invariants"]["conjecture"]["status"] == "ok"
        assert len(scans) == 1
        assert len(chi_of) == 1


def _together_equals_alone(g):
    ids = tuple(REGISTRY)
    together = _graph_record(0, g, ids, witnesses=True)
    for name in ids:
        alone = _graph_record(0, g, (name,), witnesses=True)
        assert together["invariants"][name] == alone["invariants"][name], name
        assert together["witnesses"][name] == alone["witnesses"][name], name
        # and with no scope at all
        cell = together["invariants"][name]
        status, value, witness = _compute_invariant(g, name)
        encoded = None if witness is None else REGISTRY[name].encode(witness)
        assert (status, value, encoded) == (cell["status"], cell["value"], together["witnesses"][name])


def test_shared_results_match_separate_computation(connected_le6, bipartite_le7):
    graphs = connected_le6 + bipartite_le7 + PINNED[:2]
    graphs += [random_connected(random.Random(f"n12:{seed}"), 12, 0.4) for seed in range(5)]
    for g in graphs:
        _together_equals_alone(g)
    for g in bipartite_le7:
        report = cross_check(g)
        assert report.ok, report.disagreements()
