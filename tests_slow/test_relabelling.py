"""Slow tier: the values of every registry id do not depend on the vertex
order, on graphs above Tier-1's n <= 14: seeded graphs with n = 15..24 and
the paper's families.

Run from the repository root:  python3 -m pytest tests_slow -q
"""

import random
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests")]

from conftest import Polls, random_bipartite, random_connected  # noqa: E402
from irrcolor.budget import Scope  # noqa: E402
from irrcolor.errors import SearchCancelled  # noqa: E402
from irrcolor.families import generate  # noqa: E402
from irrcolor.invariants import REGISTRY  # noqa: E402
from test_invariants import _assert_witness  # noqa: E402
from walk_reference import relabeled  # noqa: E402

FAMILIES = [("Z", (3, 2)), ("tilde", (3,)), ("cut_vertex", (3,)), ("bipartite_star_of_cycles", (4,)),
            ("bridge", (3, 3))]


def test_values_do_not_depend_on_the_vertex_order_above_the_tier1_sizes():
    """Tier-1's relabelling check at n = 15..24 and on the paper's families,
    the check above the oracle's cap for the committee search: every id in
    each graph's own order and under 3 relabellings, the values equal across
    the orders that finished, and every witness passes the package's
    predicates.  Each order keeps one memo, so the ids share chi and the set
    walk, and each id gets its own budget of polls, so an overrun costs
    only that id and counts the same on every machine.  The graphs that
    overrun in some order stay in the set, so that a slower search shows
    as a rise in the pinned count."""
    rng = random.Random("relabel-slow")
    graphs = [random_connected(rng, rng.randint(15, 24), rng.choice((0.3, 0.5, 0.7, 0.9))) for _ in range(8)]
    graphs += [random_bipartite(rng, rng.randint(15, 24), rng.choice((0.3, 0.5, 0.7, 0.9))) for _ in range(8)]
    graphs += [generate(kind, *params).graph for kind, params in FAMILIES]
    overruns = 0
    for g in graphs:
        values = {}  # id -> the values of the orders that finished it
        for h in [g] + [relabeled(g, rng) for _ in range(3)]:
            scope = Scope()
            for name, row in REGISTRY.items():
                scope.expired = Polls(20_000).expired
                try:
                    answer = row.solve(h, scope)
                except SearchCancelled:
                    overruns += 1
                    continue
                _assert_witness(h, name, answer)
                values.setdefault(name, set()).add(None if answer is None else answer[0])
        assert all(len(found) == 1 for found in values.values()), values
    # 84 on the three families past n = 24: the four set ids and both
    # dominator ids in every order, and 12 of their 24 committee searches;
    # 34 dominator searches on the seeded graphs; chi_irc on 4 seeded
    # bipartite graphs in their own order (ROADMAP item 1); and 31 on
    # bridge(3,3): the four set ids and both dominator ids in every order,
    # chi_irc in every order and irc_colorable in the 3 relabellings
    assert overruns == 153
