import random

import pytest

from irrcolor.coloring import Coloring, chromatic_number
from irrcolor.errors import PreconditionError
from irrcolor.graphs import bits, from_edge_list
from irrcolor.irc import (
    irc_chromatic_number,
    irc_colorability,
    irc_obstructions,
    irc_with_k_colors,
    is_irc_coloring,
)
from irrcolor.irredundance import is_irredundant
from irrcolor.oracle import independent_partitions, oracle_invariant

from conftest import complete, cycle, path, random_connected, tree7


def test_is_irc_coloring_preconditions():
    c4 = cycle(4)
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 0, 1, 1), 2))  # improper
    with pytest.raises(PreconditionError):
        is_irc_coloring(c4, Coloring((0, 1), 2))  # wrong length


def test_c4_two_coloring_is_committee_safe():
    verdict = is_irc_coloring(cycle(4), Coloring((0, 1, 0, 1), 2))
    assert verdict.is_irc and verdict.violating_rc is None


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


def test_obstructions():
    recs = irc_obstructions(tree7())
    assert {r.vertex for r in recs if r.kind == "low_degree"} == {2, 3, 5, 6}
    assert irc_obstructions(cycle(4)) == []
    # split graph with min degree two: clique obstruction
    split = from_edge_list(
        5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 1), (4, 2)]
    )
    assert split.min_degree() >= 2
    kinds = {r.kind for r in irc_obstructions(split)}
    assert "clique_private" in kinds


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


def test_cheap_check_agrees_with_obstruction_list():
    from irrcolor.irc import _obstructed

    rng = random.Random(17)
    for _ in range(40):
        g = random_connected(rng, rng.randint(1, 8), 0.5)
        assert _obstructed(g) == bool(irc_obstructions(g))
    assert _obstructed(from_edge_list(0, []))
