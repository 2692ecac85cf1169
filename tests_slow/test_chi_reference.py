"""Slow tier: checks too long for Tier-1, outside its ``testpaths``.

Run from the repository root:  python3 -m pytest tests_slow -q
"""

import random
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests")]

from chi_reference import reference_chromatic_number  # noqa: E402
from conftest import Polls, random_graph  # noqa: E402
from irrcolor.coloring import chromatic_number  # noqa: E402


@pytest.mark.parametrize("n, p", [(45, 0.5), (50, 0.5), (60, 0.2)])
def test_chromatic_number_matches_the_reference_on_large_graphs(n, p):
    """Tier-1's reference differential where the search tree is large: the
    reference takes seconds on G(50, 0.5)."""
    g = random_graph(random.Random(f"{n}:{p}"), n, p)
    fast, slow = Polls(), Polls()
    assert chromatic_number(g, fast) == reference_chromatic_number(g, slow)
    assert fast.polls == slow.polls
