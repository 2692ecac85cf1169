"""The invariant registry is the one list of invariant ids, and its
solvers' values do not depend on the vertex order."""

import random

from irrcolor import oracle
from irrcolor.budget import Scope
from irrcolor.cli import DEFAULT_INVARIANTS, _compute_invariant
from irrcolor.coloring import is_proper, is_rainbow
from irrcolor.errors import SearchCancelled
from irrcolor.graphs import from_edge_list
from irrcolor.invariants import REGISTRY
from irrcolor.irc import is_irc_coloring
from irrcolor.irredundance import is_dominating, is_maximal_irredundant
from irrcolor.oracle import cross_check

from conftest import Polls, complete, cycle, path, random_bipartite, random_connected
from walk_reference import relabeled

REPORT_ORDER = ("chi", "ir", "gamma", "chi_i", "chi_gamma", "chi_d", "chi_gd", "irc_colorable", "chi_irc")


def test_registry_and_oracle_define_the_same_ids():
    assert tuple(REGISTRY) == REPORT_ORDER
    assert set(oracle._DEFINITIONS) == set(REGISTRY)
    assert set(DEFAULT_INVARIANTS) <= set(REGISTRY)
    assert all(row.id == name for name, row in REGISTRY.items())


def test_cross_check_follows_registry_order():
    for g in (cycle(5), complete(4)):
        assert tuple(e.invariant for e in cross_check(g).entries) == REPORT_ORDER
    # chi_gd needs two vertices, so the one-vertex graph has no entry for it
    ids = tuple(e.invariant for e in cross_check(from_edge_list(1, [])).entries)
    assert ids == tuple(i for i in REPORT_ORDER if i != "chi_gd")


def test_rows_mark_absent_and_capped_cells():
    single = from_edge_list(1, [])
    assert _compute_invariant(single, "chi_gd") == ("absent", None, None)
    assert _compute_invariant(complete(4), "chi_gd") == ("absent", None, None)
    assert _compute_invariant(cycle(24), "chi_i") == ("skipped(cap)", None, None)
    # above its cap irc_colorable is still settled by an obstruction
    assert _compute_invariant(path(13), "irc_colorable") == ("ok", False, None)
    assert _compute_invariant(cycle(24), "irc_colorable") == ("skipped(cap)", None, None)


def _dominator_classes(g, col, anti):
    """By definition: ``col`` is proper, every vertex v dominates a class
    (the class lies in N(v), or is {v}) and, with ``anti``, avoids one (the
    class misses N[v])."""
    classes = col.classes()
    return is_proper(g, col) and all(
        any(c & ~g.adj[v] == 0 or c == 1 << v for c in classes)
        and (not anti or any(not c & g.closed(v) for c in classes))
        for v in range(g.n)
    )


def _assert_witness(g, name, answer):
    """The registry solver's ``answer`` for ``name`` on ``g`` carries a
    witness of its value, checked with the package predicates."""
    if answer is None:  # the invariant is absent on g
        assert name == "chi_irc" or name == "chi_gd" and any(g.degree(v) == g.n - 1 for v in range(g.n))
        return
    value, witness = answer
    if name == "chi":
        assert is_proper(g, witness) and witness.k == value
    elif name in ("ir", "gamma"):
        member = is_maximal_irredundant if name == "ir" else is_dominating
        assert member(g, witness) and witness.bit_count() == value
    elif name in ("chi_i", "chi_gamma"):
        member = is_maximal_irredundant if name == "chi_i" else is_dominating
        col, s = witness
        assert is_proper(g, col) and col.k == value and is_rainbow(col, s) and member(g, s)
    elif name in ("chi_d", "chi_gd"):
        assert witness.k == value and _dominator_classes(g, witness, anti=name == "chi_gd")
    elif name == "irc_colorable":
        assert (witness is not None) == value and (not value or is_irc_coloring(g, witness).is_irc)
    else:
        assert name == "chi_irc" and witness.k == value and is_irc_coloring(g, witness).is_irc


def test_values_do_not_depend_on_the_vertex_order():
    """Every registry id on seeded graphs with n = 11..14, above the oracle's
    cap, in each graph's own order and under 3 relabellings: the values
    agree across every order that finished, and every witness passes its
    check.  Each order is one Scope on a budget of polls, which overruns the
    same way on every machine.  The graphs that overrun stay in the set:
    ``random_bipartite`` numbers its two sides in two blocks, and in that
    order the committee search is at its slowest (ROADMAP item 1), so a
    rise in the pinned count means a slower search."""
    rng = random.Random("relabel-tier1")
    graphs = [random_connected(rng, rng.randint(11, 14), rng.choice((0.3, 0.5, 0.7, 0.9))) for _ in range(20)]
    graphs += [random_bipartite(rng, rng.randint(11, 14), rng.choice((0.3, 0.5, 0.7, 0.9))) for _ in range(20)]
    overruns = 0
    for g in graphs:
        values = {}  # id -> the values of the orders that finished it
        for h in [g] + [relabeled(g, rng) for _ in range(3)]:
            scope = Scope(Polls(20_000))
            cancelled = False
            for name, row in REGISTRY.items():
                try:
                    answer = row.solve(h, scope)
                except SearchCancelled:
                    cancelled = True
                    continue
                _assert_witness(h, name, answer)
                values.setdefault(name, set()).add(None if answer is None else answer[0])
            overruns += cancelled
        assert all(len(found) == 1 for found in values.values()), values
    # chi_irc on two bipartite graphs (n = 13 and 14) in their own order, which
    # takes 142,334 and 820,866 polls there and under 20,000 relabelled
    assert overruns == 2
