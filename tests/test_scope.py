"""Per-graph scopes: shared results are computed once per graph, never
kept half-done, and never change an answer."""

import random

import pytest

from irrcolor import budget, coloring, irc, irredundance
from irrcolor.cli import DEFAULT_INVARIANTS, _compute_invariant, _graph_record, _scan_graph
from irrcolor.coloring import chromatic_number, gamma_chromatic_number, irredundance_chromatic_number
from irrcolor.errors import SearchCancelled
from irrcolor.graphs import from_edge_list
from irrcolor.invariants import REGISTRY
from irrcolor.irredundance import maximal_irredundant_sets, minimal_dominating_sets
from irrcolor.oracle import cross_check

from conftest import Polls, cycle, random_connected, spy, walk_caps


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


PINNED = [cycle(7), petersen(), random_connected(random.Random("n12"), 12, 0.4)]


def _fresh(key):
    """What the memo entry ``key`` holds, computed without a scope: for
    ("families", g, capped), the whole families, cut at the size of a
    greedy dominating set when capped."""
    kind, g, *capped = key
    if kind == "chi":
        return chromatic_number(g)
    if kind == "families":
        greedy = irredundance._greedy_dominating(g) if capped[0] else 0
        cap = greedy.bit_count() if capped[0] else g.n
        return (greedy, [s for s in maximal_irredundant_sets(g) if s.bit_count() <= cap],
                [s for s in minimal_dominating_sets(g) if s.bit_count() <= cap])
    if kind == "obstructed":
        return irc._obstructed(g)
    raise AssertionError(f"unexpected memo key {kind!r}")


def test_cancelled_computations_leave_no_memo_entry():
    g = PINNED[2]
    solvers = (irredundance_chromatic_number, gamma_chromatic_number)
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
        assert all(value == _fresh(key) for key, value in scope.memo.items())
        token.limit = None  # the budget is live again
        assert [solve(g, scope) for solve in solvers] == expected
    assert cancelled >= 20


def test_cancelled_walk_is_recomputed_on_the_next_request():
    g = PINNED[2]
    for capped in (False, True):
        key = ("families", g, capped)
        token = Polls(3)  # inside the walk
        scope = budget.scope(token)
        with pytest.raises(SearchCancelled):
            irredundance._families(g, scope, capped)
        assert scope.memo == {}
        token.limit = None
        assert irredundance._families(g, scope, capped) == _fresh(key)
        assert list(scope.memo) == [key]


def test_a_consumer_that_stops_early_leaves_the_whole_family():
    for g in PINNED:
        scope = budget.scope(None)
        first = next(maximal_irredundant_sets(g, scope))
        everything = list(maximal_irredundant_sets(g))
        assert first == everything[0]
        # and no capped entry
        assert scope.memo == {("families", g, False): _fresh(("families", g, False))}
        assert list(maximal_irredundant_sets(g, scope)) == everything


def test_one_record_computes_chi_once_and_walks_once(monkeypatch):
    chi_of, walks, greedies = [], [], []
    spy(monkeypatch, coloring, "chromatic_number", chi_of)
    spy(monkeypatch, irredundance, "_irredundant_sets", walks)
    spy(monkeypatch, irredundance, "_greedy_dominating", greedies)
    for g in PINNED:
        greedy = irredundance._greedy_dominating(g).bit_count()
        for ids in (DEFAULT_INVARIANTS, tuple(REGISTRY)):
            del chi_of[:], walks[:], greedies[:]
            rec = _graph_record(0, g, ids, witnesses=True)
            assert all(cell["status"] in ("ok", "absent") for cell in rec["invariants"].values())
            assert [args[0] for args in chi_of].count(g) == 1
            # ir, gamma, chi_i and chi_gamma read one walk up to the size of
            # a greedy dominating set, found once; none is uncapped
            assert walk_caps(walks) == [greedy]
            assert len(greedies) == 1


def test_scan_conjecture_scans_for_obstructions_once(monkeypatch):
    scans, chi_of = [], []
    spy(monkeypatch, irc, "_obstructions", scans)
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
