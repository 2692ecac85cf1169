"""Ground truth by exhaustion.

Every invariant is recomputed here from its bare definition.  One scan of
all 2^n subsets tabulates, for each S, N[S], the common closed
neighborhood (for an independent S, the vertices that dominate it), the
singletons of S and whether S is irredundant; the maximal irredundant and
the dominating sets are read off it.  One walk over the canonical
partitions into independent classes (restricted-growth order, every class
count, below a class bound that falls as definitions are decided) then
scores every coloring definition with a few table lookups per class, with
naive cartesian products over class members for the committee checks.
Nothing below shares solver logic with the fast engines; only the
Graph/Coloring containers and the graph helpers are reused.  Deliberately
slow, capped by ``size_cap`` to prevent accidental blowups.

One convention is shared with the fast path by design: graphs with minimum
degree at most 1 (including the one-vertex graph) are treated as not
committee-colorable.  For connected graphs with an edge the raw definition
already implies this; the convention only pins down the trivial cases.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, NamedTuple

from . import budget
from .coloring import Coloring
from .errors import DEFAULT_SIZE_CAP, ParameterError, SizeCapError
from .graphs import Graph, VertexSet


def independent_partitions(
    g: Graph, k: int | None = None, bound: list[int] | None = None, token=None
) -> Iterator[Coloring | tuple[VertexSet, ...]]:
    """The partitions of V into independent classes, one canonical
    representative per unordered partition (vertex 0 in class 0, each later
    vertex's class at most one above the running maximum), in
    restricted-growth order.  With ``k``, the partitions into exactly k
    classes as Colorings.  With ``k=None``, the partitions into at most
    ``bound[0]`` classes (default n) as tuples of class masks; the caller
    may lower ``bound[0]`` between partitions.  One iterative walk that
    polls ``token`` at each node."""
    n = g.n
    if k is not None and not 1 <= k <= n:
        raise ParameterError(f"k must be in 1..{g.n}")
    lo, hi = (k, [k]) if k else (0, bound or [n])
    adj = g.adj
    colors = [-1] * n
    masks = [0] * n
    made = [0] * (n + 1)  # classes opened by the vertices before i
    i = 0  # the vertex to move to its next class
    while i >= 0:
        budget.check(token)
        if i == n:
            yield Coloring(tuple(colors), made[n]) if k else tuple(masks[: made[n]])
            i -= 1
            continue
        c, opened = colors[i] + 1, made[i]  # the next class to try for i
        if c:
            masks[c - 1] ^= 1 << i
        if c < opened and opened + n - i <= lo:
            c = opened  # the last vertices must open the missing classes
        top = min(opened + 1, hi[0]) if opened <= hi[0] else 0  # a lowered bound closes the prefix
        while c < top and masks[c] & adj[i]:
            c += 1
        if c >= top:
            colors[i] = -1
            i -= 1
            continue
        colors[i] = c
        masks[c] |= 1 << i
        made[i + 1] = opened + (c == opened)
        i += 1


# definitional predicates, local on purpose


def _irredundant(closed: list[VertexSet], members: list[tuple[VertexSet, ...]], s: VertexSet) -> bool:
    """Every member v of s (a one-bit mask) has a vertex of N[v] outside
    N[s - v]; ``closed`` holds N[S] and ``members`` the singletons of S for
    every S up to s."""
    for v in members[s]:
        if not closed[v] & ~closed[s ^ v]:
            return False
    return True


def _coloring(n: int, masks: tuple[VertexSet, ...]) -> Coloring:
    """The coloring whose class c is ``masks[c]``."""
    return Coloring(tuple(c for v in range(n) for c, m in enumerate(masks) if m >> v & 1), len(masks))


class OracleResult(NamedTuple):
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


def _tally(g: Graph, token=None) -> tuple[dict[str, OracleResult], dict[int, Coloring]]:
    """Every id defined on g by definition, and the first committee-safe
    partition at each class count, from one subset table and one walk over
    the independent partitions in restricted-growth order.  Each definition
    keeps the first passing partition at its fewest classes as the witness;
    the walk's class bound stays below the largest of those counts, or at n
    when g has minimum degree 2 and the committee check runs.  Polls
    ``token`` at each subset the table is built for and at each node of the
    walk."""
    n = g.n
    committee = g.min_degree() >= 2
    full = (1 << n) - 1
    # per subset S, each from S minus its lowest member: N[S]; the common
    # closed neighborhood, which for an independent S is the set of vertices
    # that dominate S (adjacent to all of it, or all of it); the singletons
    # of S and whether S is irredundant
    closed, common, members, irr = [0] * (1 << n), [full] * (1 << n), [()] * (1 << n), [True] * (1 << n)
    for s in range(1, 1 << n):
        budget.check(token)
        low = s & -s
        around = g.adj[low.bit_length() - 1] | low
        closed[s] = closed[s ^ low] | around
        common[s] = common[s ^ low] & around
        members[s] = (low, *members[s ^ low])
        irr[s] = _irredundant(closed, members, s)
    maximal = [s for s in range(1, 1 << n) if irr[s] and not any(irr[s | v] for v in members[full ^ s])]
    dominating = [s for s in range(1 << n) if closed[s] == full]
    out: dict[str, OracleResult] = {}
    # min keeps the first set of fewest members in numeric order
    for which, family in (("ir", maximal), ("gamma", dominating)):
        if n >= _DEFINITIONS[which]:
            best = min(family, key=int.bit_count)
            out[which] = OracleResult(best.bit_count(), best)

    def rainbow(masks, family):  # the first s that every class meets in at most one vertex
        s = next((s for s in family if all(m & s & (m & s) - 1 == 0 for m in masks)), None)
        return None if s is None else (_coloring(n, masks), s)

    def dominator(masks, anti=False):
        # every vertex dominates a class; with anti, every vertex also has a
        # class outside its closed neighborhood: no vertex is in every N[m]
        dominated, everywhere = 0, full
        for m in masks:
            dominated |= common[m]
            everywhere &= closed[m]
        return dominated == full and not (anti and everywhere)

    # id decided by the fewest classes of a passing partition -> the witness
    # of a partition that passes, else None
    tests = {
        "chi": lambda masks: _coloring(n, masks),
        "chi_i": lambda masks: rainbow(masks, maximal),
        "chi_gamma": lambda masks: rainbow(masks, dominating),
        "chi_d": lambda masks: _coloring(n, masks) if dominator(masks) else None,
        "chi_gd": lambda masks: _coloring(n, masks) if dominator(masks, anti=True) else None,
    }
    fewest = {which: n + 1 for which in tests if n >= _DEFINITIONS[which]}  # class count of the witness so far
    safe: dict[int, Coloring] = {}
    bound = [n if committee else max(fewest.values(), default=1) - 1]
    for masks in independent_partitions(g, None, bound, token):
        k = len(masks)
        for which, best in fewest.items():
            if k < best and (witness := tests[which](masks)) is not None:
                fewest[which] = k
                out[which] = OracleResult(k, witness)
        # every committee (one member per class) is irredundant; distinct bits: sum = union.
        # product gets a list: a generator argument there grew the process RSS
        if committee and k not in safe and all(irr[sum(c)] for c in product(*[members[m] for m in masks])):
            safe[k] = _coloring(n, masks)
        if not committee:
            bound[0] = max(fewest.values(), default=1) - 1
    for which in fewest:
        out.setdefault(which, OracleResult(None))  # no partition passes
    best = max(safe, default=None)
    out["irc_colorable"] = OracleResult(best is not None, safe.get(best))
    out["chi_irc"] = OracleResult(best, safe.get(best))
    return out, safe


def oracle_invariants(
    g: Graph, ids: Iterable[str], size_cap: int = DEFAULT_SIZE_CAP, token=None
) -> dict[str, OracleResult]:
    """Recompute invariants by definition alone: one pass decides every id
    defined on g, and ``ids`` selects from it.  Raises SizeCapError when the
    graph is larger than ``size_cap``."""
    _check_cap(g, size_cap)
    ids = tuple(ids)
    for which in ids:
        if which not in _DEFINITIONS:
            raise ParameterError(f"unknown invariant id {which!r}")
        if g.n < _DEFINITIONS[which]:
            raise ParameterError(f"{which} is undefined on {g.n} vertices")
    out = _tally(g, token)[0]
    return {which: out[which] for which in ids}


def oracle_invariant(g: Graph, which: str, size_cap: int = DEFAULT_SIZE_CAP, token=None) -> OracleResult:
    """Recompute one invariant by definition alone, at the cost of the whole
    pass.  Raises SizeCapError when the graph is larger than ``size_cap``."""
    return oracle_invariants(g, (which,), size_cap, token)[which]


def irc_class_counts(g: Graph, size_cap: int = DEFAULT_SIZE_CAP, token=None) -> tuple[int, ...]:
    """Definitional check: the class counts k for which some k-class
    partition has every committee irredundant, ascending; empty when g is
    not committee-colorable.  Used to confirm findings from the fast
    conjecture scan."""
    _check_cap(g, size_cap)
    return tuple(_tally(g, token)[1])


class CrossCheckEntry(NamedTuple):
    invariant: str
    fast: object
    oracle: object

    @property
    def agree(self) -> bool:
        return self.fast == self.oracle


class CrossCheckReport(NamedTuple):
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
    if g.n == 0:
        raise ParameterError("cross-check needs at least one vertex")
    from .invariants import REGISTRY  # the fast engines, never imported at module level

    rows = [row for row in REGISTRY.values() if g.n >= row.min_n]
    oracle = oracle_invariants(g, [row.id for row in rows], size_cap)  # checks the cap before any fast solver
    scope = budget.Scope()  # the fast solvers share chi and the set walks
    entries = []
    for row in rows:
        fast = row.solve(g, scope)
        entries.append(CrossCheckEntry(row.id, None if fast is None else fast[0], oracle[row.id].value))
    return CrossCheckReport(tuple(entries))
