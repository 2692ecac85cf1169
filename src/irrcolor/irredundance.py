"""Private neighborhoods, irredundant and dominating sets, and the exact
solvers for the lower irredundance number ir(G) and domination number γ(G).

Set arguments and results are vertex bitmasks.  Every search here reads one
walk over the irredundant sets, in ascending numeric mask order
(lexicographic over the bit string read from vertex 0 upward), made in full
on first use and kept by a ``budget.Scope`` token for every later read of
the graph.  The walk capped at g0, the size of a greedy dominating set,
holds the smallest sets of both kinds, since ir <= γ <= g0: ir, γ and
``ir_verify`` read it, ties going to ``itertools.combinations`` order, and
so does the first pass of the rainbow solvers of ``coloring``, so under one
Scope one walk serves ir, γ, chi_i and chi_gamma.  The whole walk serves
the two enumerators and the rainbow solvers' rare pass over larger sets.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import budget
from .errors import ParameterError, PreconditionError
from .graphs import Graph, VertexSet, bits, closed_neighborhood_of_set


def private_neighbors(g: Graph, v: int, s: VertexSet) -> VertexSet:
    """pn[v,S] = N[v] - N[S - {v}].  Requires v to be a member of s."""
    if not s >> v & 1:
        raise PreconditionError(f"vertex {v} is not in the set")
    return g.closed(v) & ~closed_neighborhood_of_set(g, s & ~(1 << v))


def is_irredundant(g: Graph, s: VertexSet) -> bool:
    """True when every member of ``s`` has a private neighbor.

    The empty set is vacuously irredundant.
    """
    for v in bits(s):
        if not g.closed(v) & ~closed_neighborhood_of_set(g, s & ~(1 << v)):
            return False
    return True


def is_maximal_irredundant(g: Graph, s: VertexSet) -> bool:
    """Irredundant, and no single-vertex extension stays irredundant.  The
    joining vertex v is checked first: its private neighbors in S + v are
    N[v] - N[S]."""
    if not is_irredundant(g, s):
        return False
    covered = closed_neighborhood_of_set(g, s)
    for v in bits(g.vertices & ~s):
        if g.closed(v) & ~covered and is_irredundant(g, s | (1 << v)):
            return False
    return True


def _irredundant_sets(
    g: Graph, token=None, size_cap: Optional[int] = None
) -> Iterator[tuple[VertexSet, VertexSet, bool]]:
    """Walk every irredundant set once, in ascending numeric mask order.

    Yields ``(S, N[S], maximal)``, where ``maximal`` says that no vertex can
    join S and keep it irredundant.  Irredundance is hereditary, so each
    irredundant set is reached from the one without its lowest vertex: a
    child adds a vertex below every member, and the children are walked
    lowest first, which is what puts the walk in numeric order.  With
    ``size_cap`` no set larger than the cap is visited.

    Each node keeps ``covered`` = N[S] and ``once``, the vertices covered by
    exactly one member; a member u's private neighbors are N[u] & once.
    A vertex w can join when N[w] reaches outside ``covered`` and, for every
    member u, N[w] leaves some private neighbor of u uncovered.  The w
    whose N[w] holds all of a set P are the intersection of N[x] over x in
    P, so both tests are a few mask operations per member.
    """
    closed = [g.closed(v) for v in range(g.n)]
    vertices = g.vertices
    stack = [(0, 0, 0, g.n)]  # (S, covered, once, lowest member or n)
    while stack:
        budget.check(token)
        s, covered, once, low = stack.pop()
        joiners = 0
        uncovered = vertices & ~covered
        while uncovered:  # N[V - N[S]]: members of S are never in it
            x = uncovered.bit_length() - 1
            uncovered ^= 1 << x
            joiners |= closed[x]
        rest = s if joiners else 0
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            private = closed[u] & once
            killers = -1
            while private:
                x = private.bit_length() - 1
                private ^= 1 << x
                killers &= closed[x]
            joiners &= ~killers
        if size_cap is None or s.bit_count() < size_cap:
            children = joiners & ((1 << low) - 1)
            while children:  # pushed highest first, so popped lowest first
                w = children.bit_length() - 1
                children ^= 1 << w
                fresh = closed[w] & ~covered
                stack.append((s | 1 << w, covered | fresh, once & ~closed[w] | fresh, w))
        yield s, covered, not joiners


def maximal_irredundant_sets(g: Graph, token=None) -> Iterator[VertexSet]:
    """Yield every maximal irredundant set, ascending numeric mask order.

    The empty set is never yielded, not even on the null graph.
    """
    yield from _families(g, token, capped=False)[1]


def _combinations_order(s: VertexSet) -> tuple:
    """Sort key: size, then the sorted vertex list, the order of
    ``itertools.combinations``."""
    return s.bit_count(), tuple(bits(s))


def ir_number(g: Graph, token=None) -> tuple[int, VertexSet]:
    """Minimum cardinality of a maximal irredundant set, with a witness
    (ties in combinations order).  Sought up to the size of a greedy cover,
    since ir <= gamma."""
    if g.n == 0:
        raise ParameterError("ir is undefined on the empty graph")
    s = min(_families(g, token)[1], key=_combinations_order)
    return s.bit_count(), s


def ir_verify(g: Graph, claimed: int, witness: Optional[VertexSet] = None, token=None) -> bool:
    """True when ir(G) equals ``claimed`` and the witness, if given, is a
    maximal irredundant set of that size."""
    # the empty set is maximal irredundant on the null graph, where ir_number
    # is undefined
    value = ir_number(g, token)[0] if g.n else 0
    return value == claimed and (witness is None or witness.bit_count() == claimed and is_maximal_irredundant(g, witness))


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True when N[S] covers every vertex."""
    return closed_neighborhood_of_set(g, s) == g.vertices


def minimal_dominating_sets(g: Graph, token=None) -> Iterator[VertexSet]:
    """Yield dominating sets none of whose proper subsets dominate,
    ascending numeric mask order.

    A dominating set is minimal exactly when it is irredundant (Cockayne,
    Hedetniemi and Miller, 1978), so these are the irredundant sets that
    dominate.  On the null graph the empty set is the one such set.
    """
    yield from _families(g, token, capped=False)[2]


def _families(g: Graph, token, capped: bool = True) -> tuple[VertexSet, list[VertexSet], list[VertexSet]]:
    """``(greedy, maximal, dominating)``, once per scope: with ``capped``, a
    greedy dominating set and the maximal irredundant and minimal dominating
    sets of at most as many vertices; else 0 and both whole families.  The
    families are in the enumerators' order, from one walk made in full, so
    a consumer that stops early leaves no partial family in a scope."""

    def walk():
        greedy = _greedy_dominating(g) if capped else 0
        maximal_sets, dominating_sets = [], []
        for s, covered, maximal in _irredundant_sets(g, token, greedy.bit_count() if capped else None):
            if maximal and s:
                maximal_sets.append(s)
            if covered == g.vertices:
                dominating_sets.append(s)
        return greedy, maximal_sets, dominating_sets

    return budget.shared(token, ("families", g, capped), walk)


def _greedy_dominating(g: Graph) -> VertexSet:
    chosen = 0
    covered = 0
    while covered != g.vertices:
        best_v = -1
        best_gain = -1
        for v in range(g.n):
            gain = (g.closed(v) & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen |= 1 << best_v
        covered |= g.closed(best_v)
    return chosen


def gamma_number(g: Graph, token=None) -> tuple[int, VertexSet]:
    """Minimum cardinality of a dominating set, with a witness.  A smallest
    one is minimal, so irredundant: sought up to the size of a greedy cover,
    which is the witness when no smaller set dominates."""
    greedy, _, dominating = _families(g, token)
    s = min(dominating, key=_combinations_order)
    return (s.bit_count(), s) if s.bit_count() < greedy.bit_count() else (greedy.bit_count(), greedy)
