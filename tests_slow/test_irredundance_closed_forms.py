"""Slow tier: the closed forms of ir and gamma on paths and cycles past
Tier-1's n <= 21, where the walk's half tables leave vertices to the
per-bit tail.

Run from the repository root:  python3 -m pytest tests_slow -q
"""

import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests")]

from conftest import cycle, path  # noqa: E402
from irrcolor.budget import Scope  # noqa: E402
from irrcolor.irredundance import gamma_number, ir_number  # noqa: E402


@pytest.mark.parametrize("n", [22, 23, 24])
@pytest.mark.parametrize("family", [path, cycle])
def test_ir_and_gamma_closed_forms_on_long_paths_and_cycles(family, n):
    """ir = gamma = ceil(n/3) on P_n and C_n.  gamma is textbook (Haynes,
    Hedetniemi and Slater, Fundamentals of Domination in Graphs, 1998);
    ir >= n / (2 Delta - 1) = n/3 (Bollobas and Cockayne, 1979) and ir <= gamma."""
    g = family(n)
    scope = Scope()  # both read one walk
    assert ir_number(g, scope)[0] == gamma_number(g, scope)[0] == -(-n // 3)
