"""The invariant registry: one row per invariant id, in report order.

A row gives the CLI size cap, the fewest vertices below which the invariant
is absent, the fast solver and the witness encoder.  The CLI and
``oracle.cross_check`` read their ids, caps and dispatch from here; the
oracle keeps its own definitions.  A solver takes ``(g, token)`` and
returns ``(value, witness)``, or None when the invariant is absent on g;
``irc_colorable``'s witness is the fewest-color committee coloring.
Solvers are lambdas that look the fast engines up by module-global name, so
a rebinding of those names (a tracer, a test double) sees every computation,
not every request: under a ``budget.Scope`` token a shared result (chi, the
irredundant-set families, the committee obstruction check) is computed on
the first request for the graph and read from the scope after that.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .coloring import (
    _chi,
    dominator_chromatic_number,
    gamma_chromatic_number,
    global_dominator_chromatic_number,
    irredundance_chromatic_number,
)
from .graphs import bits
from .irc import _obstructed, irc_chromatic_number, irc_colorability
from .irredundance import gamma_number, ir_number


class Invariant(NamedTuple):
    id: str
    cap: int  # the CLI marks larger graphs skipped(cap)
    min_n: int  # on fewer vertices the invariant is absent
    solve: Callable
    encode: Callable  # witness -> the JSON object the CLI reports
    above_cap: Optional[Callable] = None  # a cheap answer above the cap, if any


def _coloring(col) -> dict:
    return {"coloring": list(col.color_of)}


def _set(mask) -> dict:
    return {"set": list(bits(mask))}


def _rainbow(cert) -> dict:
    return {"coloring": list(cert.coloring.color_of), "set": list(bits(cert.rainbow_set))}


def _colorable(col):
    return col is not None, col


REGISTRY = {row.id: row for row in (
    Invariant("chi", 60, 0, lambda g, token: _chi(g, token), _coloring),
    Invariant("ir", 20, 1, lambda g, token: ir_number(g, token), _set),
    Invariant("gamma", 20, 0, lambda g, token: gamma_number(g, token), _set),
    Invariant("chi_i", 16, 1, lambda g, token: irredundance_chromatic_number(g, token), _rainbow),
    Invariant("chi_gamma", 16, 1, lambda g, token: gamma_chromatic_number(g, token), _rainbow),
    Invariant("chi_d", 12, 1, lambda g, token: dominator_chromatic_number(g, token), _coloring),
    Invariant("chi_gd", 12, 2, lambda g, token: global_dominator_chromatic_number(g, token), _coloring),
    Invariant(
        "irc_colorable", 12, 0, lambda g, token: _colorable(irc_colorability(g, token)), _coloring,
        # an obstruction settles it at any size
        above_cap=lambda g, token: (False, None) if _obstructed(g, token) else None,
    ),
    Invariant("chi_irc", 12, 0, lambda g, token: irc_chromatic_number(g, token), _coloring),
)}
