"""Ground truth by exhaustion.

Every invariant is recomputed here from its bare definition.  One scan of
all 2^n subsets tabulates N[S], and from it whether S is irredundant,
maximal irredundant or dominating; one pass over the canonical partitions
into independent classes (restricted-growth order, ascending class count)
scores every coloring definition, with naive cartesian products over class
representatives for the committee checks.  Nothing below shares solver
logic with the fast engines; only the Graph/Coloring containers are reused.
Deliberately slow, capped by ``size_cap`` to prevent accidental blowups.

One convention is shared with the fast path by design: graphs with minimum
degree at most 1 (including the one-vertex graph) are treated as not
committee-colorable.  For connected graphs with an edge the raw definition
already implies this; the convention only pins down the trivial cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from . import budget
from .coloring import Coloring
from .errors import ParameterError, SizeCapError
from .graphs import Graph, VertexSet, bits

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


# definitional predicates, local on purpose


def _irredundant(nbhd: list[VertexSet], closed: list[VertexSet], s: VertexSet) -> bool:
    """Every member v of s has a vertex of N[v] outside N[s - v]; ``nbhd``
    holds each N[v] and ``closed`` each N[S] for S numerically below s."""
    return all(nbhd[v] & ~closed[s ^ 1 << v] for v in bits(s))


def _rainbow(coloring: Coloring, s: VertexSet) -> bool:
    seen = 0
    for v in bits(s):
        c = coloring.color_of[v]
        if seen >> c & 1:
            return False
        seen |= 1 << c
    return True


def _dominator(g: Graph, masks: list[VertexSet], anti: bool) -> bool:
    """Every vertex dominates a class (is adjacent to all of it, or is all of
    it); with ``anti``, every vertex also has a class missing its closed
    neighborhood."""
    for v in range(g.n):
        if not any(m & ~g.adj[v] == 0 or m == 1 << v for m in masks):
            return False
        if anti and not any(m & (g.adj[v] | (1 << v)) == 0 for m in masks):
            return False
    return True


def _committee_safe(irr: list[bool], masks: list[VertexSet]) -> bool:
    """Every committee (one member per class) is irredundant; ``irr`` holds
    the verdict for every vertex set."""
    members = [[1 << v for v in bits(m)] for m in masks]
    return all(irr[sum(committee)] for committee in product(*members))  # distinct bits: sum = union


@dataclass(frozen=True)
class OracleResult:
    value: object
    witness: object = None


def _check_cap(g: Graph, size_cap: int) -> None:
    if g.n > size_cap:
        raise SizeCapError(f"n={g.n} exceeds the oracle cap {size_cap}")


# invariant id -> the fewest vertices on which it is defined
_DEFINITIONS = {
    "chi": 0,
    "ir": 1,
    "gamma": 0,
    "chi_i": 1,
    "chi_gamma": 1,
    "chi_d": 1,
    "chi_gd": 2,  # anti-domination needs a class to avoid
    "irc_colorable": 0,
    "chi_irc": 0,
}
# decided by the fewest classes of a passing partition
_FEWEST = ("chi", "chi_i", "chi_gamma", "chi_d", "chi_gd")
# decided by the class counts that admit a committee-safe partition
_COMMITTEE = frozenset({"irc_colorable", "chi_irc"})


def _tally(g: Graph, ids: tuple[str, ...], token=None) -> tuple[dict[str, OracleResult], dict[int, Coloring]]:
    """Every non-committee id in ``ids`` by definition, and with a committee
    id the first committee-safe partition at each class count, from one
    subset table and one pass over the independent partitions in ascending
    class count (restricted-growth order within each, so every definition
    keeps its first passing partition as the witness).  The pass stops once
    every id is decided; the committee check runs to the last class count.
    Polls ``token`` at each subset and at each partition.
    """
    n = g.n
    for which in ids:
        if n < _DEFINITIONS[which]:
            raise ParameterError(f"{which} is undefined on {n} vertices")
    committee = bool(_COMMITTEE.intersection(ids)) and g.min_degree() >= 2
    out: dict[str, OracleResult] = {}
    safe: dict[int, Coloring] = {}
    irr = maximal = dominating = None
    if committee or {"ir", "gamma", "chi_i", "chi_gamma"}.intersection(ids):
        full = (1 << n) - 1
        nbhd = [g.adj[v] | 1 << v for v in range(n)]
        closed = [0] * (1 << n)  # N[S], from S minus its lowest member
        irr = [True] * (1 << n)
        for s in range(1, 1 << n):
            budget.check(token)
            low = s & -s
            closed[s] = closed[s ^ low] | nbhd[low.bit_length() - 1]
            irr[s] = _irredundant(nbhd, closed, s)
        maximal = [s for s in range(1, 1 << n) if irr[s] and not any(irr[s | 1 << v] for v in bits(full & ~s))]
        dominating = [s for s in range(1 << n) if closed[s] == full]
        # min keeps the first set of fewest members in numeric order
        for which, family in (("ir", maximal), ("gamma", dominating)):
            if which in ids:
                best = min(family, key=int.bit_count)
                out[which] = OracleResult(best.bit_count(), best)

    def rainbow(col, family):
        return next(((col, s) for s in family if _rainbow(col, s)), None)

    # id -> the witness of a partition that passes, else None
    tests = {
        "chi": lambda col, masks: col,
        "chi_i": lambda col, masks: rainbow(col, maximal),
        "chi_gamma": lambda col, masks: rainbow(col, dominating),
        "chi_d": lambda col, masks: col if _dominator(g, masks, anti=False) else None,
        "chi_gd": lambda col, masks: col if _dominator(g, masks, anti=True) else None,
    }
    pending = {which: tests[which] for which in _FEWEST if which in ids}
    if n == 0 and "chi" in pending:
        out["chi"] = OracleResult(0, Coloring((), 0))  # the one partition of no vertices
        del pending["chi"]
    if committee:
        pending["committee"] = lambda col, masks: col if _committee_safe(irr, masks) else None
    for k in range(1, n + 1):
        if not pending:
            break
        open_k = dict(pending)
        for col in independent_partitions(g, k):
            budget.check(token)
            masks = col.classes()
            for which, test in list(open_k.items()):
                if (witness := test(col, masks)) is None:
                    continue
                del open_k[which]
                if which == "committee":
                    safe[k] = witness
                else:
                    out[which] = OracleResult(k, witness)
                    del pending[which]
            if not open_k:
                break
    for which in _FEWEST:
        if which in pending:
            out[which] = OracleResult(None)  # no partition passes
    return out, safe


def _score(g: Graph, ids: Iterable[str], token=None) -> dict[str, OracleResult]:
    """Every id in ``ids`` by definition, from one ``_tally``."""
    ids = tuple(ids)
    out, safe = _tally(g, ids, token)
    best = max(safe, default=None)
    for which, value in (("irc_colorable", best is not None), ("chi_irc", best)):
        if which in ids:
            out[which] = OracleResult(value, safe.get(best))
    return out


def oracle_invariants(
    g: Graph, ids: Iterable[str], size_cap: int = DEFAULT_SIZE_CAP, token=None
) -> dict[str, OracleResult]:
    """Recompute several invariants by definition alone, in one pass.
    Raises SizeCapError when the graph is larger than ``size_cap``."""
    _check_cap(g, size_cap)
    ids = tuple(ids)
    for which in ids:
        if which not in _DEFINITIONS:
            raise ParameterError(f"unknown invariant id {which!r}")
    return _score(g, ids, token)


def oracle_invariant(g: Graph, which: str, size_cap: int = DEFAULT_SIZE_CAP, token=None) -> OracleResult:
    """Recompute one invariant by definition alone.  Raises SizeCapError when
    the graph is larger than ``size_cap``."""
    return oracle_invariants(g, (which,), size_cap, token)[which]


def irc_class_counts(g: Graph, size_cap: int = DEFAULT_SIZE_CAP, token=None) -> tuple[int, ...]:
    """Definitional check: the class counts k for which some k-class
    partition has every committee irredundant, ascending; empty when g is
    not committee-colorable.  Used to confirm findings from the fast
    conjecture scan."""
    _check_cap(g, size_cap)
    return tuple(_tally(g, ("chi_irc",), token)[1])


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

    rows = [row for row in REGISTRY.values() if g.n >= row.min_n]
    oracle = _score(g, [row.id for row in rows])
    scope = budget.Scope()  # the fast solvers share chi and the set walks
    entries = []
    for row in rows:
        fast = row.solve(g, scope)
        entries.append(CrossCheckEntry(row.id, None if fast is None else fast[0], oracle[row.id].value))
    return CrossCheckReport(tuple(entries))
