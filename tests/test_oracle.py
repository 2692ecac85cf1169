import random
from itertools import combinations, count, islice, product
from typing import Optional

import pytest

from irrcolor import coloring, oracle
from irrcolor.coloring import Coloring
from irrcolor.errors import ParameterError, SearchCancelled, SizeCapError
from irrcolor.graphs import Graph, bits, from_edge_list, mask_from, to_graph6
from irrcolor.oracle import (
    OracleResult,
    cross_check,
    independent_partitions,
    irc_class_counts,
    oracle_invariant,
    oracle_invariants,
)

from conftest import Polls, complete, complete_bipartite, cycle, random_bipartite, random_connected, random_graph, spy, tree7


def bell_numbers(limit):
    """B(1)..B(limit) by the Bell triangle, independent of the cursor."""
    row = [1]
    out = [1]
    for _ in range(limit - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[-1])
    return out


def test_partition_counts():
    assert len(list(independent_partitions(complete(3), 3))) == 1
    assert len(list(independent_partitions(cycle(4), 2))) == 1
    for n in (2, 4, 5):
        g = cycle(n) if n > 2 else complete(2)
        assert len(list(independent_partitions(g, g.n))) == 1
    with pytest.raises(ParameterError):
        list(independent_partitions(complete(3), 0))
    with pytest.raises(ParameterError):
        list(independent_partitions(complete(3), 4))


def test_partition_totals_on_edgeless_graphs_are_bell_numbers():
    bells = bell_numbers(6)  # 1, 2, 5, 15, 52, 203
    assert bells == [1, 2, 5, 15, 52, 203]
    for n in range(1, 7):
        g = from_edge_list(n, [])
        total = sum(len(list(independent_partitions(g, k))) for k in range(1, n + 1))
        assert total == bells[n - 1]


def test_partitions_are_proper_surjective_canonical():
    rng = random.Random(3)
    for _ in range(20)        :
        g = random_connected(rng, rng.randint(2, 6))
        for k in range(1, g.n + 1):
            for col in independent_partitions(g, k):
                assert col.k == k
                assert col.canonical() == col
                for u, v in g.edges():
                    assert col.color_of[u] != col.color_of[v]


def test_one_walk_filtered_to_each_class_count_is_the_fixed_count_walk(connected_le6, bipartite_le7):
    for g in connected_le6 + bipartite_le7:
        every = list(independent_partitions(g))
        for k in range(1, g.n + 1):
            assert [p for p in every if len(p) == k] == [tuple(col.classes()) for col in independent_partitions(g, k)]
        # a bound lowered below each partition's class count keeps the
        # partitions that set a new fewest, down to chi classes
        kept, bound = [], [g.n]
        for p in independent_partitions(g, None, bound):
            kept.append(p)
            bound[0] = len(p) - 1
        fewer = []
        for p in every:
            if not fewer or len(p) < len(fewer[-1]):
                fewer.append(p)
        assert kept == fewer
    assert list(independent_partitions(from_edge_list(0, []))) == [()]


def test_the_walk_polls_at_every_node():
    # eight free vertices, then a K4 that three classes cannot hold: the
    # bound prunes every leaf, yet the walk visits 36,095 nodes
    g = from_edge_list(12, [(u, v) for u in range(8, 12) for v in range(u + 1, 12)])
    counted = Polls()
    assert list(independent_partitions(g, None, [3], counted)) == []
    assert counted.polls == 36095
    token = Polls(50)
    with pytest.raises(SearchCancelled):
        list(independent_partitions(g, None, [3], token))
    assert token.polls == 50


def test_oracle_values():
    assert oracle_invariant(cycle(4), "chi_irc").value == 2
    assert oracle_invariant(tree7(), "chi_i").value == 3
    assert oracle_invariant(complete(4), "ir").value == 1
    assert oracle_invariant(cycle(5), "irc_colorable").value is False
    assert oracle_invariant(complete_bipartite(3, 3), "chi_i").value == 2


def test_size_cap():
    big = from_edge_list(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(SizeCapError):
        oracle_invariant(big, "chi")
    assert oracle_invariant(big, "chi", size_cap=9).value == 2


def test_irc_class_counts():
    assert irc_class_counts(cycle(4)) == (2,)
    assert irc_class_counts(cycle(5)) == ()
    assert irc_class_counts(complete_bipartite(3, 3)) == (2,)


def test_cross_check_examples():
    rep = cross_check(cycle(5))
    assert rep.ok
    fetched = {e.invariant: e for e in rep.entries}
    assert fetched["irc_colorable"].fast is False
    assert fetched["chi_irc"].fast is None
    rep = cross_check(complete_bipartite(3, 3))
    assert rep.ok
    assert {e.invariant: e.fast for e in rep.entries}["chi_i"] == 2


def test_cross_check_checks_the_cap_before_any_fast_solver(monkeypatch):
    big = cycle(9)
    calls = []
    spy(monkeypatch, coloring, "chromatic_number", calls)
    with pytest.raises(SizeCapError):
        cross_check(big)
    assert calls == []
    assert cross_check(big, size_cap=9).ok
    assert calls  # the spy sees the fast chi solver


def test_cross_check_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected(rng, rng.randint(1, 7))
        assert cross_check(g).ok


# --- the per-definition oracle that one subset table and one partition pass
# replaced, kept as the reference: each definition runs its own partition
# walk and its own subset scan


def _closed_set(g: Graph, s: int) -> int:
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def _irredundant(g: Graph, s: int) -> bool:
    for v in bits(s):
        if not (g.adj[v] | (1 << v)) & ~_closed_set(g, s & ~(1 << v)):
            return False
    return True


def _max_irredundant(g: Graph, s: int) -> bool:
    if not _irredundant(g, s):
        return False
    others = ((1 << g.n) - 1) & ~s
    return all(not _irredundant(g, s | (1 << v)) for v in bits(others))


def _dominating(g: Graph, s: int) -> bool:
    return _closed_set(g, s) == (1 << g.n) - 1


def _rainbow(coloring: Coloring, s: int) -> bool:
    seen = 0
    for v in bits(s):
        c = coloring.color_of[v]
        if seen >> c & 1:
            return False
        seen |= 1 << c
    return True


def _first_partition(g: Graph, k: int, ok) -> Optional[Coloring]:
    return next((col for col in independent_partitions(g, k) if ok(col)), None)


def _fewest_classes(g: Graph, ok) -> OracleResult:
    for k in range(1, g.n + 1):
        col = _first_partition(g, k, ok)
        if col is not None:
            return OracleResult(k, col)
    return OracleResult(None)


def _oracle_chi(g: Graph) -> OracleResult:
    if g.n == 0:
        return OracleResult(0, Coloring((), 0))
    return _fewest_classes(g, lambda col: True)


def _oracle_ir(g: Graph) -> OracleResult:
    if g.n == 0:
        raise ParameterError("ir is undefined on the empty graph")
    best = min((m for m in range(1, 1 << g.n) if _max_irredundant(g, m)), key=int.bit_count)
    return OracleResult(best.bit_count(), best)


def _oracle_gamma(g: Graph) -> OracleResult:
    best = min((m for m in range(1 << g.n) if _dominating(g, m)), key=int.bit_count)
    return OracleResult(best.bit_count(), best)


def _oracle_rainbow(g: Graph, candidates: list[int]) -> OracleResult:
    if g.n == 0:
        raise ParameterError("undefined on the empty graph")
    for k in range(1, g.n + 1):
        for col in independent_partitions(g, k):
            for s in candidates:
                if _rainbow(col, s):
                    return OracleResult(k, (col, s))
    raise AssertionError("unreachable: the all-singleton coloring qualifies")


def _oracle_chi_i(g: Graph) -> OracleResult:
    return _oracle_rainbow(g, [m for m in range(1, 1 << g.n) if _max_irredundant(g, m)])


def _oracle_chi_gamma(g: Graph) -> OracleResult:
    return _oracle_rainbow(g, [m for m in range(1 << g.n) if _dominating(g, m)])


def _dominator(g: Graph, col: Coloring, anti: bool) -> bool:
    masks = col.classes()
    for v in range(g.n):
        if not any(m & ~g.adj[v] == 0 or m == 1 << v for m in masks):
            return False
        if anti and not any(m & (g.adj[v] | (1 << v)) == 0 for m in masks):
            return False
    return True


def _oracle_chi_d(g: Graph) -> OracleResult:
    if g.n == 0:
        raise ParameterError("undefined on the empty graph")
    return _fewest_classes(g, lambda col: _dominator(g, col, anti=False))


def _oracle_chi_gd(g: Graph) -> OracleResult:
    if g.n < 2:
        raise ParameterError("anti-domination needs a class to avoid")
    return _fewest_classes(g, lambda col: _dominator(g, col, anti=True))


def _committee_safe(g: Graph, col: Coloring) -> bool:
    members = [list(bits(m)) for m in col.classes()]
    return all(_irredundant(g, mask_from(committee)) for committee in product(*members))


def _committee_safe_partition(g: Graph, k: int) -> Optional[Coloring]:
    if g.n == 0 or g.min_degree() <= 1 or not 1 <= k <= g.n:
        return None
    return _first_partition(g, k, lambda col: _committee_safe(g, col))


def _oracle_committee(g: Graph) -> dict[str, OracleResult]:
    best_k = best_col = None
    for k in range(1, g.n + 1):
        col = _committee_safe_partition(g, k)
        if col is not None:
            best_k, best_col = k, col
    return {
        "irc_colorable": OracleResult(best_k is not None, best_col),
        "chi_irc": OracleResult(best_k, best_col),
    }


_REFERENCE = {
    "chi": _oracle_chi,
    "ir": _oracle_ir,
    "gamma": _oracle_gamma,
    "chi_i": _oracle_chi_i,
    "chi_gamma": _oracle_chi_gamma,
    "chi_d": _oracle_chi_d,
    "chi_gd": _oracle_chi_gd,
    "irc_colorable": lambda g: _oracle_committee(g)["irc_colorable"],
    "chi_irc": lambda g: _oracle_committee(g)["chi_irc"],
}


def _labelled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for m in range(1 << len(pairs)):
        yield from_edge_list(n, [e for i, e in enumerate(pairs) if m >> i & 1])


def test_reference_covers_every_oracle_id():
    assert set(_REFERENCE) == set(oracle._DEFINITIONS)


def test_oracle_matches_the_per_definition_reference(connected_le6, bipartite_le7):
    graphs = [g for n in range(5) for g in _labelled_graphs(n)] + connected_le6 + bipartite_le7
    rng = random.Random(8)
    graphs += [random_graph(rng, 8, p) for p in (0.2, 0.4, 0.7) for _ in range(3)]
    # minimum degree >= 2 keeps the committee ids in the walk to the last
    # class count; none of these ten is committee-colorable, the bipartite
    # ones are (with two classes)
    sparse = (random_connected(rng, 8, 0.25) for _ in count())
    graphs += list(islice((g for g in sparse if g.min_degree() >= 2), 10))
    graphs += [random_bipartite(rng, 8, 0.5) for _ in range(3)]
    for g in graphs:
        defined = []
        for which, definition in _REFERENCE.items():
            try:
                expected = definition(g)
            except ParameterError:
                with pytest.raises(ParameterError):
                    oracle_invariant(g, which)
                continue
            defined.append(which)
            assert oracle_invariant(g, which) == expected, (to_graph6(g), which)
        # every id from one call, as cross_check asks for them
        joint = oracle_invariants(g, defined)
        assert joint == {which: _REFERENCE[which](g) for which in defined}, to_graph6(g)
        safe = {k: col for k in range(1, g.n + 1) if (col := _committee_safe_partition(g, k))}
        assert oracle._tally(g)[1] == safe, to_graph6(g)
        assert irc_class_counts(g) == tuple(safe)


# (graph, partitions yielded) in one cross_check, which walks the partitions
# once.  The per-definition reference above made (20, 68), (18, 38),
# (16, 125) and (26, 301) calls and yields, and evaluated the irredundance
# test 301, 285, 452 and 1,168 times; one subset table evaluates it once per
# nonempty subset.  tree7 has a leaf, so no committee id keeps the class
# bound at n and the bound falls as the ids are decided; the other three
# have minimum degree 2 and walk every partition.
_PINNED_COUNTS = [
    (cycle(6), 41),
    (complete_bipartite(3, 3), 25),
    (tree7(), 84),
    (random_connected(random.Random(3), 8, 0.5), 236),
]


def test_cross_check_walks_the_partitions_once_and_the_subsets_once(monkeypatch):
    counts = {}
    partitions, irredundant = oracle.independent_partitions, oracle._irredundant

    def counted_partitions(*args):
        counts["calls"] += 1
        for partition in partitions(*args):
            counts["yielded"] += 1
            yield partition

    def counted_irredundant(*args):
        counts["irredundant"] += 1
        return irredundant(*args)

    monkeypatch.setattr(oracle, "independent_partitions", counted_partitions)
    monkeypatch.setattr(oracle, "_irredundant", counted_irredundant)
    for g, yielded in _PINNED_COUNTS:
        counts.update(calls=0, yielded=0, irredundant=0)
        assert cross_check(g).ok
        assert counts == {"calls": 1, "yielded": yielded, "irredundant": 2**g.n - 1}


def test_every_call_builds_the_whole_table_and_scores_every_definition(monkeypatch):
    # one shape: a single-id call tests irredundance at every nonempty
    # subset, as cross_check's call for every id does, and gives its answer
    calls = []
    irredundant = oracle._irredundant
    monkeypatch.setattr(oracle, "_irredundant", lambda *args: calls.append(1) or irredundant(*args))
    for g in (cycle(6), tree7()):
        defined = [which for which, fewest in oracle._DEFINITIONS.items() if g.n >= fewest]
        joint = oracle_invariants(g, defined)
        for which in defined:
            calls.clear()
            assert oracle_invariant(g, which) == joint[which], (which, g.n)
            assert len(calls) == 2**g.n - 1, (which, g.n)


def test_oracle_polls_the_budget():
    # both run out in the subset table; test_the_walk_polls_at_every_node covers the walk
    for which in ("chi_irc", "chi_gd"):
        token = Polls(50)
        with pytest.raises(SearchCancelled):
            oracle_invariant(cycle(12), which, size_cap=12, token=token)
        assert token.polls == 50
