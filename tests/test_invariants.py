"""The invariant registry is the one list of invariant ids."""

from irrcolor import oracle
from irrcolor.cli import DEFAULT_INVARIANTS, _compute_invariant
from irrcolor.graphs import from_edge_list
from irrcolor.invariants import REGISTRY
from irrcolor.oracle import cross_check

from conftest import complete, cycle, path

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
