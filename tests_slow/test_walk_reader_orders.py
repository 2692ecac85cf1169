"""Slow tier: Tier-1's reader-order differential of the set walk on
larger graphs, n = 17..22, and on C24 and P24, where vertices from 20 up
fall past the walk's half tables.

Run from the repository root:  python3 -m pytest tests_slow -q
"""

import random
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests")]

from conftest import cycle, path, random_connected  # noqa: E402
from walk_reference import assert_reader_orders  # noqa: E402


@pytest.mark.parametrize("p", [0.15, 0.3, 0.5, 0.8])
def test_readers_in_every_order_match_the_whole_layer_walk_on_larger_graphs(p):
    rng = random.Random(f"reader-orders:{p}")
    for n in range(17, 23):
        assert_reader_orders(random_connected(rng, n, p))


@pytest.mark.parametrize("family", [path, cycle])
def test_readers_in_every_order_match_the_whole_layer_walk_on_long_paths_and_cycles(family):
    # a whole walk of 24 vertices takes about a second; after each order
    # the walk completes the layer it was in instead of every layer
    assert_reader_orders(family(24), families=False)
