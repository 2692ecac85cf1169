"""Exact coloring solvers.

Chromatic number via saturation-ordered branch and bound; the rainbow-set
invariants (irredundance chromatic number, gamma chromatic number) via a
clique reduction: making a candidate set rainbow is the same as properly
coloring the graph with a clique added on that set.  Dominator-style
invariants search canonical class partitions directly.

All searches break ties toward the lowest vertex index and lowest color id,
so results are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import budget
from .errors import ParameterError
from .graphs import Graph, VertexSet, _Frozen, _unchecked, bits
from .irredundance import _layers, is_dominating, is_maximal_irredundant


class Coloring(_Frozen):
    """Surjective assignment of vertices to color ids 0..k-1.

    Properness is a predicate, not an invariant: search intermediates may be
    improper.  ``canonical()`` relabels so first occurrences of color ids
    ascend with vertex index, the form the partition searches enumerate.
    """

    color_of: tuple[int, ...]
    k: int

    def __init__(self, color_of: tuple[int, ...], k: int):
        object.__setattr__(self, "color_of", color_of)
        object.__setattr__(self, "k", k)
        self._check()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.color_of == other.color_of and self.k == other.k

    def __hash__(self):
        return hash((self.color_of, self.k))

    def __repr__(self):
        return f"Coloring(color_of={self.color_of!r}, k={self.k!r})"

    def _check(self):
        used = set(self.color_of)
        if self.color_of and (min(used) < 0 or max(used) >= self.k):
            raise ValueError("color id out of range")
        if len(used) != self.k:
            raise ValueError("coloring must use every color id")

    def classes(self) -> list[VertexSet]:
        masks = [0] * self.k
        for v, c in enumerate(self.color_of):
            masks[c] |= 1 << v
        return masks

    def canonical(self) -> "Coloring":
        relabel: dict[int, int] = {}
        out = []
        for c in self.color_of:
            if c not in relabel:
                relabel[c] = len(relabel)
            out.append(relabel[c])
        return Coloring(tuple(out), self.k)


def is_proper(g: Graph, coloring: Coloring) -> bool:
    return all(coloring.color_of[u] != coloring.color_of[v] for u, v in g.edges())


def is_rainbow(coloring: Coloring, s: VertexSet) -> bool:
    """True when the members of ``s`` carry pairwise distinct colors."""
    seen = 0
    for v in bits(s):
        c = coloring.color_of[v]
        if seen >> c & 1:
            return False
        seen |= 1 << c
    return True


def add_clique(g: Graph, s: VertexSet) -> Graph:
    """Graph with all missing edges inside ``s`` added."""
    if s & ~g.vertices:
        raise ParameterError("clique set has bits outside the graph")
    adj = list(g.adj)
    for v in bits(s):
        adj[v] |= s & ~(1 << v)
    return _unchecked(g.n, tuple(adj))


def max_clique(g: Graph) -> VertexSet:
    """A maximum clique, found by branch and bound over candidate masks."""
    best = 0

    def expand(r: int, p: int) -> None:
        nonlocal best
        while p:
            if r.bit_count() + p.bit_count() <= best.bit_count():
                return
            v = (p & -p).bit_length() - 1
            p ^= 1 << v
            rv = r | (1 << v)
            if rv.bit_count() > best.bit_count():
                best = rv
            expand(rv, p & g.adj[v])

    expand(0, g.vertices)
    return best


def chromatic_number(g: Graph, token=None) -> tuple[int, Coloring]:
    """Exact chi(G) and a witness proper coloring, by Brelaz's DSATUR.

    A greedy pass, then a branch and bound from a maximum clique, each color
    next the uncolored vertex with the most colors on its neighbors, ties to
    the highest degree and then the lowest index.  Both read ``sat[u]``, the
    colors on u's colored neighbors, kept as vertices are colored and
    uncolored."""
    n = g.n
    if n == 0:
        return 0, Coloring((), 0)
    adj = g.adj
    colors = [-1] * n
    sat = [0] * n
    # (saturation, degree, -u) as one integer: the degree and index part
    # stays below n * n
    rank = [g.degree(u) * n + n - 1 - u for u in range(n)]
    square = n * n

    def most_saturated(uncolored: list[int]) -> int:
        top = -1
        for u in uncolored:
            key = sat[u].bit_count() * square + rank[u]
            if key > top:
                top, v = key, u
        return v

    uncolored = list(range(n))
    while uncolored:
        v = most_saturated(uncolored)
        uncolored.remove(v)
        s = sat[v]
        c = (~s & (s + 1)).bit_length() - 1
        colors[v] = c
        for u in bits(adj[v]):
            sat[u] |= 1 << c
    best = colors
    best_k = max(colors) + 1
    clique = max_clique(g)
    if clique.bit_count() < best_k:
        colors = [-1] * n
        sat = [0] * n
        nbrs = [list(bits(a)) for a in adj]
        for c, v in enumerate(bits(clique)):
            colors[v] = c
            for u in nbrs[v]:
                sat[u] |= 1 << c

        def search(uncolored: list[int], used: int) -> None:
            nonlocal best, best_k
            budget.check(token)
            if used >= best_k:
                return
            if not uncolored:
                best = colors[:]
                best_k = used
                return
            v = most_saturated(uncolored)
            rest = [u for u in uncolored if u != v]
            for c in range(min(used + 1, best_k - 1)):
                bit = 1 << c
                if sat[v] & bit:
                    continue
                colors[v] = c
                lacking = [u for u in nbrs[v] if not sat[u] & bit]
                for u in lacking:
                    sat[u] |= bit
                search(rest, max(used, c + 1))
                for u in lacking:
                    sat[u] ^= bit

        search([v for v in range(n) if colors[v] < 0], clique.bit_count())
    return best_k, Coloring(tuple(best), best_k).canonical()


def _chi(g: Graph, token) -> tuple[int, Coloring]:
    """``chromatic_number(g)``, computed once per ``budget.Scope``."""
    return budget.shared(token, ("chi", g), lambda: chromatic_number(g, token))


class RainbowCert(NamedTuple):
    """A proper coloring together with the set it renders rainbow."""

    coloring: Coloring
    rainbow_set: VertexSet


def irredundance_chromatic_number(g: Graph, token=None) -> tuple[int, RainbowCert]:
    """Minimum colors of a proper coloring with some maximal irredundant set
    rainbow.  Minimizes chi over the clique reductions of the candidates."""
    if g.n < 1:
        raise ParameterError("needs at least one vertex")
    return _min_rainbow(g, 0, is_maximal_irredundant, token)


def gamma_chromatic_number(g: Graph, token=None) -> tuple[int, RainbowCert]:
    """Minimum colors of a proper coloring with some dominating set rainbow.

    Minimal dominating sets suffice: rainbow-ness is hereditary downward and
    every dominating set contains a minimal one.
    """
    if g.n < 1:
        raise ParameterError("needs at least one vertex")
    return _min_rainbow(g, 1, is_dominating, token)


def _min_rainbow(g: Graph, family: int, member, token) -> tuple[int, RainbowCert]:
    """The fewest colors over the clique reductions of the sets of
    ``irredundance._layers`` at index ``family`` (0: maximal irredundant,
    1: minimal dominating), tried in (size, mask) order.

    chi is read first, then the candidates, one layer at a time.  A rainbow
    candidate needs as many colors as it has members, so the search stops
    at max(chi, smallest candidate size), which is max(chi, ir) or max(chi,
    gamma), and no candidate with as many members as the best count so far
    is tried: the next layer is asked for only while its size is below the
    best count and that count is above the bound.  On a graph with a
    full-degree vertex, the maximal irredundant singletons are the
    full-degree vertices, and the lowest one's reduction is g itself, which
    stops the search at chi.  ``member`` is the predicate every candidate
    satisfies, checked on the result."""
    chi, _ = _chi(g, token)
    best = lower = None
    for size, layer in enumerate(_layers(g, token)):
        for s in layer[family]:
            budget.check(token)
            if lower is None:
                lower = max(chi, size)
            k, col = _chi(add_clique(g, s), token)
            if best is None or k < best[0]:
                best = (k, RainbowCert(col, s))
                if k == max(lower, size):  # the bound, or none of this size can need fewer
                    break
        if best is not None and best[0] <= max(lower, size + 1):  # the bound, or none larger can
            break
    _validate_cert(g, best[1], member)
    return best


def _validate_cert(g: Graph, cert: RainbowCert, member) -> None:
    if not is_proper(g, cert.coloring):
        raise AssertionError("certificate coloring is not proper")
    if not is_rainbow(cert.coloring, cert.rainbow_set):
        raise AssertionError("certificate set is not rainbow")
    if not member(g, cert.rainbow_set):
        raise AssertionError(f"certificate set fails {member.__name__}")


# --- dominator-style colorings ------------------------------------------------
#
# v dominates class C when C is a subset of N(v), or C == {v}.
# v anti-dominates C when N[v] and C are disjoint (own class never counts).
# For an independent C these read: v is in N[u] for every u in C, and v is
# in no N[u].


def _restricted_growth_search(g: Graph, lo: int, hi: int, fault, token=None, fewest: bool = False) -> Optional[Coloring]:
    """The first canonical proper partition, in restricted-growth order, with
    the most classes between ``lo`` and ``hi`` in which ``fault`` finds
    nothing at any placement, or with ``fewest`` the fewest; None when there
    is none.

    Vertex i joins an existing class or opens the next one, and then
    ``fault(i, created, masks, colors, union, inter, cap)`` rejects the
    prefix and every extension by returning what it found (anything
    truthy); ``union[c]`` and ``inter[c]`` are the union and the
    intersection of N[u] over the placed members u of class c, kept as
    vertices are placed and removed, and ``cap`` is the most classes a
    partition found from here on may have.  The call on the last vertex is
    the final test.  Each partition found raises ``lo`` above its class
    count, or with ``fewest`` lowers the cap below it.  The order does not
    depend on the bounds, so the last partition found is the first in that
    order with its count.
    """
    n = g.n
    if not 1 <= lo <= hi <= n:
        return None
    closed = [g.closed(v) for v in range(n)]
    colors = [-1] * n
    masks = [0] * hi
    union, inter = [0] * hi, [g.vertices] * hi
    best: Optional[Coloring] = None

    def rec(i: int, created: int) -> bool:
        """Search below the placed prefix 0..i-1; True stops the search."""
        nonlocal best, lo, hi
        budget.check(token)
        if created + n - i < lo:
            return False
        if i == n:
            best = Coloring(tuple(colors), created)
            if fewest:
                hi = created - 1
            else:
                lo = created + 1
            return lo > hi
        here, neighbors = closed[i], g.adj[i]
        for c in range(created + 1):
            nxt = max(created, c + 1)
            if nxt > hi:  # the cap may fall while the loop runs
                break
            if masks[c] & neighbors:
                continue
            colors[i] = c
            masks[c] |= 1 << i
            # an intersection cannot be undone from N[i], so the old values
            # are kept for the return
            was_union, was_inter = union[c], inter[c]
            union[c], inter[c] = was_union | here, was_inter & here
            if not fault(i, nxt, masks, colors, union, inter, hi) and rec(i + 1, nxt):
                return True
            colors[i] = -1
            masks[c] ^= 1 << i
            union[c], inter[c] = was_union, was_inter
        return False

    rec(0, 0)
    return best


def _dominator_search(g: Graph, anti: bool, token=None) -> Coloring:
    """The first dominator partition (with ``anti``, global dominator) with
    the fewest classes, from chi up."""
    n, everyone = g.n, g.vertices
    closed = [g.closed(v) for v in range(n)]
    # ahead[i]: the union of N(w) and the intersection of N[w] over w > i,
    # standing in for a class that a vertex after i may still open
    ahead = [(0, everyone)] * n
    for i in range(n - 2, -1, -1):
        union, inter = ahead[i + 1]
        ahead[i] = (union | g.adj[i + 1], inter & closed[i + 1])

    def fault(i: int, created: int, masks: list[int], colors: list[int], union: list[int], inter: list[int],
              cap: int) -> int:
        # the vertices that dominate some class, and those that avoid none
        dominating, everywhere = ahead[i] if created < cap else (0, everyone)
        for c in range(created):
            dominating |= inter[c]
            everywhere &= union[c]
        placed = (2 << i) - 1
        # the placed vertices that dominate no class, or with anti avoid none
        return placed & (~dominating | everywhere) if anti else placed & ~dominating

    chi, _ = _chi(g, token)
    return _restricted_growth_search(g, chi, g.n, fault, token, fewest=True)


def dominator_chromatic_number(g: Graph, token=None) -> tuple[int, Coloring]:
    """Minimum colors of a proper coloring where every vertex dominates a
    color class."""
    if g.n < 1:
        raise ParameterError("needs at least one vertex")
    # singleton classes always dominate, so there is one
    col = _dominator_search(g, anti=False, token=token)
    return col.k, col


def global_dominator_chromatic_number(g: Graph, token=None) -> Optional[tuple[int, Coloring]]:
    """Dominator coloring where every vertex also anti-dominates a class.

    Returns None when no such coloring exists at any k, which happens exactly
    when some vertex is adjacent to all others.
    """
    if g.n < 2:
        raise ParameterError("anti-domination needs a class to avoid")
    if any(g.degree(v) == g.n - 1 for v in range(g.n)):
        return None
    # otherwise singleton classes both dominate and avoid, so there is one
    col = _dominator_search(g, anti=True, token=token)
    return col.k, col
