"""Ground truth by exhaustion.

Every invariant is recomputed here from its bare definition: canonical set
partitions into independent classes (restricted-growth order), full subset
scans for the set invariants, and naive cartesian products over class
representatives for committee checks.  Nothing below shares solver logic
with the fast engines; only the Graph/Coloring containers are reused.
Deliberately slow, capped by ``size_cap`` to prevent accidental blowups.

One convention is shared with the fast path by design: graphs with minimum
degree at most 1 (including the one-vertex graph) are treated as not
committee-colorable.  For connected graphs with an edge the raw definition
already implies this; the convention only pins down the trivial cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .coloring import Coloring
from .errors import ParameterError, SizeCapError
from .graphs import Graph, VertexSet, bits, mask_from

DEFAULT_SIZE_CAP = 8


def independent_partitions(g: Graph, k: int) -> Iterator[Coloring]:
    """All partitions of V into exactly k independent classes, one canonical
    representative per unordered partition (vertex 0 in class 0, each later
    vertex's class at most one above the running maximum)."""
    if not 1 <= k <= g.n:
        raise ParameterError(f"k must be in 1..{g.n}")
    n = g.n
    colors = [0] * n
    masks = [0] * k

    def rec(i: int, created: int):
        if n - i < k - created:
            return
        if i == n:
            if created == k:
                yield Coloring(tuple(colors), k)
            return
        for c in range(min(created + 1, k)):
            if masks[c] & g.adj[i]:
                continue
            colors[i] = c
            masks[c] |= 1 << i
            yield from rec(i + 1, max(created, c + 1))
            masks[c] ^= 1 << i

    yield from rec(0, 0)


# definitional set predicates, local on purpose


def _closed_set(g: Graph, s: VertexSet) -> VertexSet:
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def _irredundant(g: Graph, s: VertexSet) -> bool:
    for v in bits(s):
        if not (g.adj[v] | (1 << v)) & ~_closed_set(g, s & ~(1 << v)):
            return False
    return True


def _max_irredundant(g: Graph, s: VertexSet) -> bool:
    if not _irredundant(g, s):
        return False
    others = ((1 << g.n) - 1) & ~s
    return all(not _irredundant(g, s | (1 << v)) for v in bits(others))


def _dominating(g: Graph, s: VertexSet) -> bool:
    return _closed_set(g, s) == (1 << g.n) - 1


def _rainbow(coloring: Coloring, s: VertexSet) -> bool:
    seen = 0
    for v in bits(s):
        c = coloring.color_of[v]
        if seen >> c & 1:
            return False
        seen |= 1 << c
    return True


@dataclass(frozen=True)
class OracleResult:
    value: object
    witness: object = None


def _check_cap(g: Graph, size_cap: int) -> None:
    if g.n > size_cap:
        raise SizeCapError(f"n={g.n} exceeds the oracle cap {size_cap}")


def _first_partition(g: Graph, k: int, ok) -> Optional[Coloring]:
    """The first partition into k independent classes that passes ``ok``."""
    return next((col for col in independent_partitions(g, k) if ok(col)), None)


def _fewest_classes(g: Graph, ok) -> OracleResult:
    """The fewest classes of a partition passing ``ok``, with the first such
    partition; the value is None when no partition passes."""
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


def _oracle_rainbow(g: Graph, candidates: list[VertexSet]) -> OracleResult:
    """Fewest colors of a partition into independent classes that leaves
    some candidate set rainbow."""
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
    """Every vertex dominates a class (is adjacent to all of it, or is all of
    it); with ``anti``, every vertex also has a class missing its closed
    neighborhood."""
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
    """Every committee (one member per class) is irredundant."""
    members = [list(bits(m)) for m in col.classes()]
    return all(_irredundant(g, mask_from(committee)) for committee in product(*members))


def _committee_safe_partition(g: Graph, k: int) -> Optional[Coloring]:
    """The first k-class partition whose committees are all irredundant."""
    if g.n == 0 or g.min_degree() <= 1 or not 1 <= k <= g.n:
        return None
    return _first_partition(g, k, lambda col: _committee_safe(g, col))


def _oracle_committee(g: Graph) -> dict[str, OracleResult]:
    """irc_colorable and chi_irc from one search: the largest k with a
    committee-safe partition, and the first such partition."""
    best_k = best_col = None
    for k in range(1, g.n + 1):
        col = _committee_safe_partition(g, k)
        if col is not None:
            best_k, best_col = k, col
    return {
        "irc_colorable": OracleResult(best_k is not None, best_col),
        "chi_irc": OracleResult(best_k, best_col),
    }


def irc_partition_exists(g: Graph, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Definitional check: some k-class partition has every committee
    irredundant.  Used to confirm findings from the fast conjecture scan."""
    _check_cap(g, size_cap)
    return _committee_safe_partition(g, k) is not None


# invariant id -> its definition
_DEFINITIONS = {
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


def oracle_invariant(g: Graph, which: str, size_cap: int = DEFAULT_SIZE_CAP) -> OracleResult:
    """Recompute one invariant by definition alone.  Raises SizeCapError when
    the graph is larger than ``size_cap``."""
    _check_cap(g, size_cap)
    if which not in _DEFINITIONS:
        raise ParameterError(f"unknown invariant id {which!r}")
    return _DEFINITIONS[which](g)


@dataclass(frozen=True)
class CrossCheckEntry:
    invariant: str
    fast: object
    oracle: object

    @property
    def agree(self) -> bool:
        return self.fast == self.oracle


@dataclass(frozen=True)
class CrossCheckReport:
    entries: tuple[CrossCheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.agree for e in self.entries)

    def disagreements(self) -> list[CrossCheckEntry]:
        return [e for e in self.entries if not e.agree]


def cross_check(g: Graph, size_cap: int = DEFAULT_SIZE_CAP) -> CrossCheckReport:
    """Every invariant via both the fast engines and this oracle.

    Any disagreement is a defect by definition.
    """
    _check_cap(g, size_cap)
    if g.n == 0:
        raise ParameterError("cross-check needs at least one vertex")
    from .invariants import REGISTRY  # the fast engines, never imported at module level

    committee = _oracle_committee(g)  # one search answers both committee ids
    entries = []
    for row in REGISTRY.values():
        if g.n < row.min_n:
            continue
        fast = row.solve(g, None)
        oracle = committee[row.id] if row.id in committee else _DEFINITIONS[row.id](g)
        entries.append(CrossCheckEntry(row.id, None if fast is None else fast[0], oracle.value))
    return CrossCheckReport(tuple(entries))
