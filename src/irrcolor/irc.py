"""Colorings whose every rainbow committee is an irredundant set.

A rainbow committee picks exactly one vertex from each color class.  A
coloring qualifies when no committee contains a member with an empty private
neighborhood.  One check decides this one placement at a time: it covers a
victim's N[v] with the closed neighborhoods of members drawn from the other
classes, which is exactly what annihilates pn[v, RC].  The partition
searches run it at every placement, so a prefix with a violating committee
is dropped with all its extensions, and the verifier replays it over the
placements of a whole coloring.  It reads the per-class unions of N[u]
that the search keeps as it places vertices, and skips a victim whose
target reaches outside the union of the classes that may supply members
before any cover search starts.

Two necessary conditions prune everything cheap:
  * no obstruction, one predicate the searches ask once per graph:
    minimum degree at least 2 (a pendant plus its support vertex always
    yields a bad committee; the one-vertex graph is excluded by convention),
    and no maximal clique with a member that has no private neighbor in it
    (private sets only shrink as a clique grows, so maximal ones suffice),
    found first among the simplicial vertices and then by a clique walk
    over the vertices on a triangle;
  * every vertex needs two same-colored neighbors, otherwise a committee
    through its rainbow neighborhood kills it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import NamedTuple, Optional

from . import budget
from .coloring import Coloring, _chi, _restricted_growth_search, is_proper
from .errors import PreconditionError
from .graphs import Graph, VertexSet, bits
from .irredundance import private_neighbors


class IrcVerdict(NamedTuple):
    """Outcome of a committee check; carries a violating committee if any."""

    is_irc: bool
    violating_rc: Optional[VertexSet] = None
    violating_vertex: Optional[int] = None


def _cover(closed: list[int], masks: list[int], created: int, used: int, target: int) -> Optional[int]:
    """At most one member from each class j < ``created`` outside the bit
    set ``used`` whose closed neighborhoods together cover ``target``, as
    one mask (0 for an empty target); None when there is none.

    ``closed[u]`` is N[u] and ``masks[j]`` class j.  Some member must cover
    the lowest vertex w of the target, so the search branches only over the
    members of N[w] in the unused classes, each time on what that member
    leaves uncovered and with its class used (the branching rule of Knuth's
    "Dancing Links"): at most |N[w]| branches a level, at most |target|
    levels.  Whether a cover exists does not depend on the search, so only
    the members returned depend on this order.
    """
    if not target:
        return 0
    near = closed[(target & -target).bit_length() - 1]
    for j in range(created):
        if used >> j & 1:
            continue
        members = masks[j] & near
        while members:
            low = members & -members
            members ^= low
            picked = _cover(closed, masks, created, used | 1 << j, target & ~closed[low.bit_length() - 1])
            if picked is not None:
                return picked | low
    return None


def _maximal_cliques(g: Graph, pool: int, token=None):
    """Bron-Kerbosch with pivoting on the subgraph induced by ``pool``;
    yields its maximal cliques as masks."""

    def bk(r: int, p: int, x: int):
        budget.check(token)
        if not p and not x:
            yield r
            return
        pivot_pool = p | x
        pivot = max(bits(pivot_pool), key=lambda u: (g.adj[u] & p).bit_count())
        for v in bits(p & ~g.adj[pivot]):
            yield from bk(r | (1 << v), p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if pool:
        yield from bk(0, pool, 0)


def _obstructed(g: Graph, token=None) -> bool:
    """The cheap non-colorability check of the module docstring.  It
    returns True at the first certificate; False guarantees nothing."""
    # low degree first: it costs one pass over the rows, the cliques more
    if g.n == 0 or any(row.bit_count() <= 1 for row in g.adj):
        return True
    triangles = 0  # the vertices on a triangle: the ends of each edge with a common neighbor
    for v in range(g.n):
        for u in bits(g.adj[v] & ((1 << v) - 1)):
            if g.adj[u] & g.adj[v]:
                triangles |= 1 << u | 1 << v
    # then the simplicial cliques: when N[v] is a clique it is a maximal one,
    # and v has no private neighbor in it, since every other member u has
    # N[u] containing N[v]; this finds them without the clique walk.  With
    # two or more neighbors such a v lies on a triangle
    for v in bits(triangles):
        q = g.closed(v)
        if all(g.closed(u) & q == q for u in bits(g.adj[v])):
            return True
    # the clique walk last, over the vertices on a triangle, which hold
    # every clique of three or more.  An edge on no triangle never blocks,
    # since each end keeps its other neighbors as private ones; and a clique
    # maximal in the pool is maximal in g, since a vertex extending it would
    # close a triangle, which lies inside the pool
    return any(any(private_neighbors(g, v, q) == 0 for v in bits(q)) for q in _maximal_cliques(g, triangles, token))


def _committee_fault(g: Graph):
    """The committee check at each placement: ``(victim, members)`` when
    the prefix has a violating committee (at most one member per class),
    or a vertex whose placed neighbors all differ in color (then N[victim],
    which every completion makes rainbow), else None.

    A violating committee of a prefix stays violating in every extension:
    more members and more classes only shrink pn[v, RC].  A new one must
    contain the vertex i just placed in class c, and its victim is i or an
    earlier v outside c whose N[v] meets N[i] (for any other victim, i can
    be swapped for another member of c, or dropped if it opened c, to give
    a violating committee of the previous prefix).  The victim i is hit
    when one member from each other class covers N[i]; a victim v when one
    member from each class other than c and v's covers N[v] - N[i].  The
    cover search runs only when the target lies within the union of those
    classes' ``union`` entries, the search's per-class unions of N[u], and
    reads the search's class masks in place, with c and v's class used.
    """
    n, adj = g.n, g.adj
    closed = [g.closed(v) for v in range(n)]
    prefix = list(accumulate(closed, or_, initial=0))  # prefix[v]: N[0..v-1]
    # for each index i, the vertices whose neighborhoods complete at i
    complete_at: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        if adj[u]:
            complete_at[adj[u].bit_length() - 1].append(u)
    # victims[i]: (v, the target a cover must reach) for each victim that
    # placing i can hit, i itself first; listed only when the earlier
    # vertices other than v reach the whole target
    victims: list[list[tuple[int, int]]] = []
    for i in range(n):
        row = [] if closed[i] & ~prefix[i] else [(i, closed[i])]
        between = 0  # N[v+1..i-1]
        for v in range(i - 1, -1, -1):
            target = closed[v] & ~closed[i]
            if closed[v] & closed[i] and not target & ~(prefix[v] | between):
                row.append((v, target))
            between |= closed[v]
        victims.append(row)

    def fault(i: int, created: int, masks: list[int], colors: list[int], union: list[int], inter: list[int],
              cap: int) -> Optional[tuple[int, VertexSet]]:
        for u in complete_at[i]:
            # every vertex needs two same-colored neighbors
            row = adj[u]
            for j in range(created):
                if (row & masks[j]).bit_count() > 1:
                    break
            else:
                return u, closed[u]
        c = colors[i]
        for v, target in victims[i]:
            cv = colors[v]  # c for the victim i, which leaves out class c only
            if cv == c and v != i:
                continue
            within = 0  # all that the classes other than c and cv cover
            for j in range(created):
                if j != c and j != cv:
                    within |= union[j]
            if target & ~within:
                continue
            picked = _cover(closed, masks, created, 1 << c | 1 << cv, target)
            if picked is not None:
                return v, picked | 1 << v | 1 << i
        return None

    return fault


def _shared_fault(g: Graph, token):
    """``_committee_fault(g)``, built once per ``budget.Scope``."""
    return budget.shared(token, ("committee_fault", g), lambda: _committee_fault(g))


def is_irc_coloring(g: Graph, coloring: Coloring, token=None) -> IrcVerdict:
    """Check that every rainbow committee of ``coloring`` is irredundant, by
    replaying the partition search's check over the placements of its
    canonical form, with the per-class tables the search keeps; here alone
    the check's members become a committee, with the lowest member of each
    class they miss.

    This is the bare definition, without the minimum-degree convention of
    ``irc_colorability`` and the oracle: it accepts ``(0, 1, 0, 1, 2)`` on C4
    plus an isolated vertex, and ``(0,)`` on K1, though both of those report
    the graph not committee-colorable."""
    if len(coloring.color_of) != g.n:
        raise PreconditionError("coloring does not cover the graph")
    if not is_proper(g, coloring):
        raise PreconditionError("coloring is not proper")
    fault = _shared_fault(g, token)
    canonical = coloring.canonical()
    colors = list(canonical.color_of)
    masks, union, inter = [0] * canonical.k, [0] * canonical.k, [g.vertices] * canonical.k
    created = 0
    for i, c in enumerate(colors):
        budget.check(token)
        masks[c] |= 1 << i
        union[c] |= g.closed(i)
        inter[c] &= g.closed(i)
        created = max(created, c + 1)
        hit = fault(i, created, masks, colors, union, inter, canonical.k)
        if hit:
            victim, rc = hit
            for m in canonical.classes():
                if not rc & m:
                    rc |= m & -m
            assert private_neighbors(g, victim, rc) == 0
            return IrcVerdict(False, rc, victim)
    return IrcVerdict(True)


def _fault_unless_obstructed(g: Graph, token):
    """The committee search's check, or None when ``_obstructed`` rules
    every coloring out; both once per ``budget.Scope``."""
    if budget.shared(token, ("obstructed", g), lambda: _obstructed(g, token)):
        return None
    return _shared_fault(g, token)


def irc_colorability(g: Graph, token=None) -> Optional[Coloring]:
    """A witness committee-safe coloring if one exists, else None: the first
    one with the fewest colors."""
    fault = _fault_unless_obstructed(g, token)
    if fault is None:
        return None
    chi, _ = _chi(g, token)
    return _restricted_growth_search(g, chi, g.n, fault, token, fewest=True)


def irc_with_k_colors(g: Graph, k: int, token=None) -> Optional[Coloring]:
    """A committee-safe coloring with exactly k colors, else None."""
    fault = _fault_unless_obstructed(g, token)
    return None if fault is None else _restricted_growth_search(g, k, k, fault, token)


def irc_chromatic_number(g: Graph, token=None) -> Optional[tuple[int, Coloring]]:
    """Maximum k over committee-safe colorings; None when none exist.

    k = n is impossible once an edge exists (the all-singleton committee is
    the whole vertex set, which is never irredundant then), so one search
    over every class count up to n-1 finds the first coloring with the most
    colors.
    """
    fault = _fault_unless_obstructed(g, token)
    if fault is None:
        return None
    col = _restricted_growth_search(g, 1, g.n - 1, fault, token)
    return None if col is None else (col.k, col)
