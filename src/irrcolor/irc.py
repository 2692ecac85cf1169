"""Colorings whose every rainbow committee is an irredundant set.

A rainbow committee picks exactly one vertex from each color class.  A
coloring qualifies when no committee contains a member with an empty private
neighborhood.  The verifier searches for a violating committee victim-first:
it tries to cover N[v] with the closed neighborhoods of members drawn from
the other classes, which is exactly what annihilates pn[v, RC].

Two necessary conditions prune everything cheap:
  * minimum degree at least 2 (a pendant plus its support vertex always
    yields a bad committee; the one-vertex graph is excluded by convention);
  * every vertex needs two same-colored neighbors, otherwise a committee
    through its rainbow neighborhood kills it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import budget
from .coloring import Coloring, _restricted_growth_search, chromatic_number, is_proper
from .errors import PreconditionError
from .graphs import Graph, VertexSet, bits
from .irredundance import private_neighbors


@dataclass(frozen=True)
class IrcVerdict:
    """Outcome of a committee check; carries a violating committee if any."""

    is_irc: bool
    violating_rc: Optional[VertexSet] = None
    violating_vertex: Optional[int] = None


@dataclass(frozen=True)
class Obstruction:
    kind: str  # "low_degree" or "clique_private"
    vertex: int
    clique: Optional[VertexSet] = None


def _closed(g: Graph, v: int) -> int:
    return g.adj[v] | (1 << v)


def _committee_violation(g: Graph, class_masks: list[int], token=None):
    """Find (victim, committee) with pn[victim, committee] empty, else None."""
    n = g.n
    k = len(class_masks)
    color_of = [0] * n
    for c, m in enumerate(class_masks):
        for v in bits(m):
            color_of[v] = c

    # quick reject: a vertex whose neighbors are pairwise distinctly colored
    # is annihilated by any committee through its closed neighborhood
    for v in range(n):
        per_class = [(g.adj[v] & m).bit_count() for m in class_masks]
        if g.degree(v) >= 1 and max(per_class) <= 1:
            rc = _closed(g, v)
            for c, m in enumerate(class_masks):
                if not rc & m:
                    rc |= (m & -m)  # lowest member fills the class
            return v, rc

    class_lists = [list(bits(m)) for m in class_masks]
    order = sorted(range(n), key=lambda v: (g.degree(v), v))
    for v in order:
        budget.check(token)
        target = _closed(g, v)
        others = [class_lists[c] for c in range(k) if c != color_of[v]]

        def cover(idx: int, remaining: int, chosen: list[int]) -> Optional[list[int]]:
            if idx == len(others):
                return list(chosen) if remaining == 0 else None
            potential = 0
            for lst in others[idx:]:
                for u in lst:
                    potential |= _closed(g, u)
            if remaining & ~potential:
                return None
            members = sorted(
                others[idx],
                key=lambda u: (-(_closed(g, u) & remaining).bit_count(), u),
            )
            for u in members:
                chosen.append(u)
                found = cover(idx + 1, remaining & ~_closed(g, u), chosen)
                if found is not None:
                    return found
                chosen.pop()
            return None

        picked = cover(0, target, [])
        if picked is not None:
            rc = 1 << v
            for u in picked:
                rc |= 1 << u
            return v, rc
    return None


def is_irc_coloring(g: Graph, coloring: Coloring, token=None) -> IrcVerdict:
    """Check that every rainbow committee of ``coloring`` is irredundant."""
    if len(coloring.color_of) != g.n:
        raise PreconditionError("coloring does not cover the graph")
    if not is_proper(g, coloring):
        raise PreconditionError("coloring is not proper")
    hit = _committee_violation(g, coloring.classes(), token)
    if hit is None:
        return IrcVerdict(True)
    victim, rc = hit
    assert private_neighbors(g, victim, rc) == 0
    return IrcVerdict(False, rc, victim)


def _maximal_cliques(g: Graph, token=None):
    """Bron-Kerbosch with pivoting; yields clique masks."""

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

    if g.n:
        yield from bk(0, g.vertices, 0)


def _obstructions(g: Graph, token=None) -> Iterator[Obstruction]:
    # low degree first: it costs one pass over the vertices, the cliques more
    for v in range(g.n):
        if g.degree(v) <= 1:
            yield Obstruction("low_degree", v)

    def clique_private(q: int) -> Optional[Obstruction]:
        for v in bits(q):
            if private_neighbors(g, v, q) == 0:
                return Obstruction("clique_private", v, q)
        return None

    # then the simplicial cliques: when N[v] is a clique it is a maximal one,
    # and v has no private neighbor in it, since every other member u has
    # N[u] containing N[v]; this finds them without the clique walk
    simplicial_cliques = set()
    for v in range(g.n):
        q = _closed(g, v)
        if g.degree(v) >= 2 and q not in simplicial_cliques and all(
            _closed(g, u) & q == q for u in bits(g.adj[v])
        ):
            simplicial_cliques.add(q)
            yield clique_private(q)
    for q in _maximal_cliques(g, token):
        if q.bit_count() >= 2 and q not in simplicial_cliques:
            found = clique_private(q)
            if found is not None:
                yield found


def irc_obstructions(g: Graph) -> list[Obstruction]:
    """Known certificates of non-colorability.

    An empty list is not a colorability guarantee.  Degree at most 1 blocks
    (pendant/support committees, trivial graph by convention); so does any
    maximal clique with a member whose private neighborhood in it is empty
    (private sets only shrink as the clique grows, so maximal cliques
    suffice).
    """
    return list(_obstructions(g))


def _obstructed(g: Graph, token=None) -> bool:
    """The cheap non-colorability check: the empty graph, or a first
    obstruction."""
    return g.n == 0 or next(_obstructions(g, token), None) is not None


def _irc_partition_search(g: Graph, k: int, token=None) -> Optional[Coloring]:
    """First canonical proper k-partition all of whose committees are
    irredundant, or None.  Assumes minimum degree >= 2 was checked."""
    # for each index i, the vertices whose neighborhoods complete at i
    complete_at: list[list[int]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        if g.adj[u]:
            complete_at[g.adj[u].bit_length() - 1].append(u)

    def fits(i: int, created: int, masks: list[int]) -> bool:
        for u in complete_at[i]:
            # every vertex needs two same-colored neighbors
            if all((g.adj[u] & m).bit_count() <= 1 for m in masks):
                return False
        # a complete k-partition must also pass the committee check
        return i < g.n - 1 or created < k or _committee_violation(g, masks, token) is None

    return _restricted_growth_search(g, k, fits, token)


def irc_colorability(g: Graph, token=None) -> Optional[Coloring]:
    """A witness committee-safe coloring if one exists, else None."""
    if _obstructed(g, token):
        return None
    chi, _ = chromatic_number(g, token)
    for k in range(chi, g.n + 1):
        col = _irc_partition_search(g, k, token)
        if col is not None:
            return col
    return None


def irc_with_k_colors(g: Graph, k: int, token=None) -> Optional[Coloring]:
    """A committee-safe coloring with exactly k colors, else None."""
    if _obstructed(g, token):
        return None
    return _irc_partition_search(g, k, token)


def irc_chromatic_number(g: Graph, token=None) -> Optional[tuple[int, Coloring]]:
    """Maximum k over committee-safe colorings; None when none exist.

    k = n is impossible once an edge exists (the all-singleton committee is
    the whole vertex set, which is never irredundant then), so the search
    descends from n-1.
    """
    if _obstructed(g, token):
        return None
    chi, _ = chromatic_number(g, token)
    for k in range(g.n - 1, chi - 1, -1):
        col = _irc_partition_search(g, k, token)
        if col is not None:
            return k, col
    return None
