"""Private neighborhoods, irredundant and dominating sets, and the exact
solvers for the lower irredundance number ir(G) and domination number γ(G).

Set arguments and results are vertex bitmasks.  Every search here reads one
walk over the irredundant sets by size, which builds the layer of d-vertex
sets only when a reader asks for it, and which a ``budget.Scope`` token
keeps for every later read of the graph.  Under one Scope one walk serves
ir, γ, chi_i and chi_gamma, as deep as the deepest of them reads: ir to the
first layer with a maximal irredundant set, γ to the first with a
dominating set below g0, the size of a greedy dominating set, and the
rainbow solvers of ``coloring`` while a smaller candidate could still lower
their count.  Ties in ir and γ go to ``itertools.combinations`` order.  The
two enumerators read every layer, merged into ascending numeric mask order
(lexicographic over the bit string read from vertex 0 upward).
"""

from __future__ import annotations

from typing import Iterator

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


class _Walk:
    """The irredundant sets of one graph, one size layer at a time, built as
    far as a reader has asked.

    ``layers[d]`` holds the maximal irredundant and the minimal dominating
    sets of d vertices, each in ascending numeric mask order; the empty set
    counts as dominating on the null graph and as maximal nowhere.
    Irredundance is hereditary, so each irredundant set is reached from the
    one without its lowest vertex by adding a vertex below every member.
    ``frontier`` holds the sets of the last layer that have such children,
    the children still as a mask; taking them set by set, each set's
    children lowest first, puts the next layer in mask order.

    Each set carries ``covered`` = N[S] and ``once``, the vertices covered
    by exactly one member; a member u's private neighbors are N[u] & once.
    A vertex w can join when N[w] reaches outside ``covered`` and, for every
    member u, N[w] leaves some private neighbor of u uncovered.  The w
    whose N[w] holds all of a set P are the intersection of N[x] over x in
    P, so both tests are a few mask operations per member.  A set no vertex
    can join is maximal, and so is every dominating one.

    Both tests read ``union`` and ``inter``, tables built once per walk.
    With h = min(ceil(n/2), 10), each holds a table for the vertices [0, h)
    and one for [h, 2h), indexed by a set X's bits in that part: ``union``
    gives N[X] and ``inter`` the intersection of N[x] over x in X (-1 for
    the empty X).  The cap of 10 keeps a table at 2^10 entries, where halves
    of a 40-vertex graph would take 2^20 each even for a walk that ends at
    its first layer; vertices from 2h up are folded in one at a time, and
    there are none when n <= 20.
    """

    __slots__ = ("closed", "vertices", "split", "union", "inter", "layers", "frontier")

    def __init__(self, g: Graph, token):
        budget.check(token)  # the empty set is the walk's first node
        self.closed = closed = [g.closed(v) for v in range(g.n)]
        self.vertices = g.vertices
        self.split = h = min((g.n + 1) // 2, 10)
        self.union, self.inter = ([0], [0]), ([-1], [-1])
        for union, inter, first in zip(self.union, self.inter, (0, h)):
            for x in closed[first:first + h]:  # doubling: the sets with x follow those without
                union += [a | x for a in union]
                inter += [a & x for a in inter]
        self.layers: list[tuple[list[VertexSet], list[VertexSet]]] = [([], [] if g.n else [0])]
        # (S, covered, once, children): every vertex can join the empty set
        self.frontier = [(0, 0, 0, g.vertices)] if g.n else []

    def grow(self, token) -> bool:
        """Add the next layer; False when the last one has no children.  A
        layer is kept only when it is complete, so a cancelled call leaves
        the walk as it was."""
        if not self.frontier:
            return False
        closed, vertices, h = self.closed, self.vertices, self.split
        (lo_union, hi_union), (lo_inter, hi_inter) = self.union, self.inter
        part = (1 << h) - 1
        tail = vertices & ~(part | part << h)
        maximal_sets, dominating_sets, frontier = [], [], []
        for s, covered, once, children in self.frontier:
            while children:  # lowest first
                low = children & -children
                children ^= low
                budget.check(token)
                w = low.bit_length() - 1
                fresh = closed[w] & ~covered
                child, child_covered, child_once = s | low, covered | fresh, once & ~closed[w] | fresh
                # N[V - N[S]]: members of S are never in it
                uncovered = vertices & ~child_covered
                joiners = lo_union[uncovered & part] | hi_union[uncovered >> h & part]
                uncovered &= tail
                while uncovered:
                    x = uncovered.bit_length() - 1
                    uncovered ^= 1 << x
                    joiners |= closed[x]
                rest = child if joiners else 0
                while rest:
                    u = rest.bit_length() - 1
                    rest ^= 1 << u
                    private = closed[u] & child_once
                    killers = lo_inter[private & part] & hi_inter[private >> h & part]
                    private &= tail
                    while private:
                        x = private.bit_length() - 1
                        private ^= 1 << x
                        killers &= closed[x]
                    joiners &= ~killers
                if not joiners:
                    maximal_sets.append(child)
                    if child_covered == vertices:
                        dominating_sets.append(child)
                elif joiners & (low - 1):
                    frontier.append((child, child_covered, child_once, joiners & (low - 1)))
        self.layers.append((maximal_sets, dominating_sets))
        self.frontier = frontier
        return True


def _layers(g: Graph, token) -> Iterator[tuple[list[VertexSet], list[VertexSet]]]:
    """The layers of the graph's one walk per scope, size 0 up, each built
    only when the reader asks for it: ``(maximal, dominating)`` as in
    ``_Walk.layers``."""
    walk = budget.shared(token, ("walk", g), lambda: _Walk(g, token))
    size = 0
    while size < len(walk.layers) or walk.grow(token):
        yield walk.layers[size]
        size += 1


def maximal_irredundant_sets(g: Graph, token=None) -> Iterator[VertexSet]:
    """Yield every maximal irredundant set, ascending numeric mask order.

    The empty set is never yielded, not even on the null graph.
    """
    yield from sorted(s for maximal, _ in _layers(g, token) for s in maximal)


def _first_combination(sets: list[VertexSet]) -> VertexSet:
    """The first of the same-size ``sets`` in ``itertools.combinations``
    order, that of their sorted vertex lists."""
    return min(sets, key=lambda s: tuple(bits(s)))


def ir_number(g: Graph, token=None) -> tuple[int, VertexSet]:
    """Minimum cardinality of a maximal irredundant set, with a witness
    (ties in combinations order): the walk is read up to the first layer
    that holds one."""
    if g.n == 0:
        raise ParameterError("ir is undefined on the empty graph")
    s = _first_combination(next(maximal for maximal, _ in _layers(g, token) if maximal))
    return s.bit_count(), s


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
    yield from sorted(s for _, dominating in _layers(g, token) for s in dominating)


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
    one is minimal, so irredundant: the walk is read only below the size g0
    of a greedy cover, which is the witness when no smaller set dominates."""
    greedy = _greedy_dominating(g)
    # zip takes the size first, so no layer of g0 members is built
    for _, (_, dominating) in zip(range(greedy.bit_count()), _layers(g, token)):
        if dominating:
            s = _first_combination(dominating)
            return s.bit_count(), s
    return greedy.bit_count(), greedy
