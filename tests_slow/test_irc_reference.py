"""Slow tier: the committee search against its per-k reference at the sizes
of the ``committee_bipartite`` workload.

Run from the repository root:  python3 -m pytest tests_slow -q
"""

import random
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests")]

from conftest import random_bipartite  # noqa: E402
from irrcolor.irc import irc_chromatic_number, irc_colorability  # noqa: E402
from test_irc import _reference_chromatic_number, _reference_colorability  # noqa: E402


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_committee_search_matches_the_reference_on_bipartite_graphs(n, p):
    """Tier-1's committee reference differential, value and witness, on
    three seeded bipartite graphs with minimum degree >= 2: the reference
    checks committees at the complete partitions only, one k at a time, and
    takes seconds here."""
    rng = random.Random(f"slow-committee:{n}:{p}")
    for _ in range(3):
        g = random_bipartite(rng, n, p)
        assert irc_chromatic_number(g) == _reference_chromatic_number(g)
        assert irc_colorability(g) == _reference_colorability(g)
