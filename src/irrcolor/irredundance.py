"""Private neighborhoods, irredundant and dominating sets, and the exact
solvers for the lower irredundance number ir(G) and domination number γ(G).

Set arguments and results are vertex bitmasks.  Every search here reads one
walk over the irredundant sets by size, which a ``budget.Scope`` token
keeps for every later read of the graph.  The layer of d-vertex sets is
built only when a reader asks for it, and only as far as its readers
need until one reads it whole; each set is built once, whoever asks
first.  Under one Scope one walk serves ir, γ, chi_i and chi_gamma, as
deep as the deepest of them reads: ir to the first layer with a maximal
irredundant set, γ to the first with a dominating set below g0, the size
of a greedy dominating set, and the rainbow solvers of ``coloring`` while
a smaller candidate could still lower their count.

A layer has two read orders.  The rainbow solvers try their candidates in
ascending numeric mask order (lexicographic over the bit string read from
vertex 0 upward), the order the walk builds in, and often stop at the
first.  ir and γ take the first set in ``itertools.combinations`` order,
which compares the lowest vertex first: once a set of the layer that they
accept is built, the answer's lowest vertex is at most that set's, so of
the rest of the layer only the sets with a lowest vertex no higher are
built.  The two enumerators read every layer, merged into mask order.
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


def _coverage(adj: tuple[int, ...], s: VertexSet) -> tuple[VertexSet, VertexSet]:
    """``(covered, once)``: N[S], and the vertices in exactly one N[u] over
    u in S, in one pass over S, lowest member first.  A member u's private
    neighbors are N[u] & once."""
    covered = twice = 0
    while s:
        low = s & -s
        s ^= low
        row = adj[low.bit_length() - 1] | low
        twice |= covered & row
        covered |= row
    return covered, covered & ~twice


def is_irredundant(g: Graph, s: VertexSet) -> bool:
    """True when every member of ``s`` has a private neighbor.

    The empty set is vacuously irredundant.
    """
    adj = g.adj
    _, once = _coverage(adj, s)
    while s:
        low = s & -s
        s ^= low
        if not (adj[low.bit_length() - 1] | low) & once:
            return False
    return True


def is_maximal_irredundant(g: Graph, s: VertexSet) -> bool:
    """Irredundant, and no single-vertex extension stays irredundant.  A
    vertex v outside S joins when it has a private neighbor in S + v, some
    vertex of N[v] outside N[S], and leaves every member u one of its own:
    N[u] & once & ~N[v] is not empty.  The v of the first test are those
    of N[V - N[S]], which holds no member of S, so only they are tried."""
    adj = g.adj
    covered, once = _coverage(adj, s)
    privates = []
    while s:
        low = s & -s
        s ^= low
        private = (adj[low.bit_length() - 1] | low) & once
        if not private:
            return False
        privates.append(private)
    joiners = closed_neighborhood_of_set(g, g.vertices & ~covered)
    while joiners:
        low = joiners & -joiners
        joiners ^= low
        near = adj[low.bit_length() - 1] | low
        for private in privates:
            if not private & ~near:
                break
        else:
            return False
    return True


class _Part:
    """The layer after the last complete one, as far as it is built.

    The mask-order prefix holds the children of ``parents[:at]`` and those
    of ``parents[at]`` that its entry no longer lists: the entry's children
    mask keeps only what is left to build.  ``sets`` and ``frontier`` hold
    the prefix's maximal, dominating and child-bearing sets.  ``aside``
    maps each child built out of that order to its ``(covered, once,
    joiners)``, which the prefix reads instead of building the child
    again."""

    __slots__ = ("parents", "at", "sets", "frontier", "aside")

    def __init__(self, parents: list, aside: dict):
        self.parents = parents
        self.at = 0
        self.sets: tuple[list[VertexSet], list[VertexSet]] = ([], [])
        self.frontier: list = []
        self.aside = aside


class _Walk:
    """The irredundant sets of one graph, one size layer at a time, built as
    far as a reader has asked.

    ``layers[d]`` holds the maximal irredundant and the minimal dominating
    sets of d vertices, each in ascending numeric mask order; the empty set
    counts as dominating on the null graph and as maximal nowhere.
    Irredundance is hereditary, so each irredundant set is reached from the
    one without its lowest vertex by adding a vertex below every member.
    ``frontier`` holds the sets of the last complete layer that have such
    children, the children still as a mask; taking them set by set, each
    set's children lowest first, puts the next layer in mask order.

    That next layer is ``part``, a ``_Part``, built only as far as its
    readers need, in one of two orders.  ``sets`` yields a family of it in
    mask order, and builds it up to each set it yields.  ``first`` wants
    the first set of a family (a hit) in ``itertools.combinations`` order,
    which compares the lowest vertex first.  It builds in mask order up to
    the first hit.  If the least lowest vertex of the hits built is t, the
    answer's lowest vertex is at most t, so ``first`` then builds, for
    each t' from 0 up to t, the unbuilt children whose lowest vertex is
    t', one bucket at a time, and stops at the first t' that has a hit
    built or in its bucket.  The children it builds out of mask order go
    in ``aside``, where the mask-order build reads them: each set is
    built, and polls the budget, once.  ``grow`` builds in mask order,
    and a layer that readers take whole is built in that order alone.

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

    __slots__ = ("closed", "vertices", "split", "union", "inter", "layers", "frontier", "part")

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
        self.part = _Part(self.frontier, {})

    def grow(self, token, stop: Optional[int] = None) -> bool:
        """Build the next layer on in mask order through its next set in
        family ``stop``, or with None to its end, which completes it;
        False when the last complete layer has no children.  A cancelled
        call keeps every complete layer and leaves the next one built as
        far as it got."""
        if not self.frontier:
            return False
        part = self.part
        if not self._build(part, stop, token):
            self.layers.append(part.sets)
            self.frontier = part.frontier
            self.part = _Part(self.frontier, {})
        return True

    def sets(self, size: int, family: int, token) -> Iterator[VertexSet]:
        """The sets of d = ``size`` vertices in ``family`` (0: maximal
        irredundant, 1: minimal dominating), in mask order.  The next layer
        is built only up to the set the reader asks for; nothing is yielded
        past the last layer."""
        if size < len(self.layers):
            sets = self.layers[size][family]
        elif size == len(self.layers) and self.frontier:
            sets = self.part.sets[family]  # the list the completed layer keeps
        else:
            return
        read = 0
        while True:
            while read < len(sets):
                yield sets[read]
                read += 1
            if size < len(self.layers):
                return
            self.grow(token, family)

    def first(self, size: int, family: int, token) -> Optional[VertexSet]:
        """The first set of ``size`` vertices in ``family`` in combinations
        order, or None; ``size`` is at most that of the next layer."""
        if size == len(self.layers) and self.frontier and not self.part.sets[family]:
            self.grow(token, family)
        if size < len(self.layers):
            sets = self.layers[size][family]
            return _first_combination(sets) if sets else None
        if size > len(self.layers) or not self.frontier:
            return None
        part = self.part
        built = part.sets[family]
        least = min(s & -s for s in built)  # the lowest vertex of a built hit, as a bit
        # the unbuilt children, by lowest vertex up to least's, in one pass
        buckets = [[] for _ in range(least.bit_length())]
        for s, covered, once, children in part.parents[part.at:]:
            rest = children & (2 * least - 1)
            while rest:
                low = rest & -rest
                rest ^= low
                buckets[low.bit_length() - 1].append((s, covered, once, low))
        for bucket in buckets:
            sub = _Part(bucket, part.aside)
            self._build(sub, None, token, keep=True)
            hits = sub.sets[family]
            if bucket is buckets[-1]:  # no built hit has a lower lowest vertex
                hits += [s for s in built if s & -s == least]
            if hits:
                return _first_combination(hits)

    def _build(self, part: _Part, stop: Optional[int], token, keep: bool = False) -> bool:
        """Build ``part`` on in mask order; True when it stops after adding
        a set in family ``stop``, False when its parents have no children
        left.  A child in ``part.aside`` is read, not built; with ``keep``
        each child built is put there.  However the call ends, ``part``
        holds what it built."""
        closed, vertices, h = self.closed, self.vertices, self.split
        (lo_union, hi_union), (lo_inter, hi_inter) = self.union, self.inter
        half = (1 << h) - 1
        tail = vertices & ~(half | half << h)
        parents, aside = part.parents, part.aside
        (maximal_sets, dominating_sets), frontier = part.sets, part.frontier
        i, end = part.at, len(parents)
        try:
            while i < end:
                s, covered, once, children = parents[i]
                while children:  # lowest first
                    low = children & -children
                    child = s | low
                    if aside and child in aside:
                        child_covered, child_once, joiners = aside[child]
                    else:
                        budget.check(token)
                        w = low.bit_length() - 1
                        fresh = closed[w] & ~covered
                        child_covered, child_once = covered | fresh, once & ~closed[w] | fresh
                        # N[V - N[S]]: members of S are never in it
                        uncovered = vertices & ~child_covered
                        joiners = lo_union[uncovered & half] | hi_union[uncovered >> h & half]
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
                            killers = lo_inter[private & half] & hi_inter[private >> h & half]
                            private &= tail
                            while private:
                                x = private.bit_length() - 1
                                private ^= 1 << x
                                killers &= closed[x]
                            joiners &= ~killers
                        if keep:
                            aside[child] = child_covered, child_once, joiners
                    children ^= low
                    if not joiners:
                        maximal_sets.append(child)
                        if child_covered == vertices:
                            dominating_sets.append(child)
                            if stop == 1:
                                return True
                        if stop == 0:
                            return True
                    elif joiners & (low - 1):
                        frontier.append((child, child_covered, child_once, joiners & (low - 1)))
                i += 1
            return False
        finally:
            if i < end:
                parents[i] = s, covered, once, children
            part.at = i


def _walk(g: Graph, token) -> _Walk:
    """The graph's one walk per scope."""
    return budget.shared(token, ("walk", g), lambda: _Walk(g, token))


def _layers(g: Graph, token) -> Iterator[tuple[list[VertexSet], list[VertexSet]]]:
    """The complete layers of the graph's walk, size 0 up, each built only
    when the reader asks for it: ``(maximal, dominating)`` as in
    ``_Walk.layers``."""
    walk = _walk(g, token)
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
    walk = _walk(g, token)
    size = 0
    while (s := walk.first(size, 0, token)) is None:
        size += 1
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
    walk = _walk(g, token) if greedy else None  # the null graph starts no walk
    for size in range(greedy.bit_count()):
        s = walk.first(size, 1, token)
        if s is not None:
            return s.bit_count(), s
    return greedy.bit_count(), greedy
