"""Structural witnesses for bipartite graphs whose irredundance chromatic
number is 2, and the matching construction families.

A bipartite graph needs only two colors exactly when some cross pair forms a
maximal irredundant set that the 2-coloring leaves rainbow.  Two vertex-pair
properties certify that:

  * anchor edge: an adjacent pair, both of degree >= 2, whose neighborhood
    conditions force maximality of the pair;
  * near twins: a non-adjacent cross pair where each vertex is adjacent to
    the entire opposite side except the partner.

The construction families say the same thing from the building side: linked
stars (two stars joined through a degree-2 middle vertex, with optional extra
edges from the first star's leaves to the second center), a dominating edge
(both endpoints complete to the opposite side), or near twins again.  Stars
are carved out separately: they satisfy the dominating-edge condition
literally, but their pair witnesses degenerate.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import PreconditionError
from .graphs import Graph, bits, bipartition


class PairWitness(NamedTuple):
    """Named witness; v1/v2 meaning depends on ``kind``."""

    kind: str
    v1: Optional[int] = None
    v2: Optional[int] = None


def _sides(g: Graph) -> tuple[int, int]:
    parts = bipartition(g)
    if parts is None:
        raise PreconditionError("graph is not bipartite")
    return parts


def is_star(g: Graph) -> Optional[int]:
    """Center of a star K_{1,n-1} (n >= 2), else None."""
    if g.n < 2:
        return None
    for c in range(g.n):
        if g.degree(c) == g.n - 1 and all(
            g.degree(v) == 1 for v in range(g.n) if v != c
        ):
            return c
    return None


def _anchor_conditions(g: Graph, side1: int, side2: int, v1: int, v2: int) -> bool:
    n1, n2 = g.adj[v1], g.adj[v2]
    # every vertex on side 2 missed by v1 must see all of N(v2) - {v1}
    need = n2 & ~(1 << v1)
    for x in bits(side2 & ~n1):
        if g.adj[x] & need != need:
            return False
    need = n1 & ~(1 << v2)
    for x in bits(side1 & ~n2):
        if g.adj[x] & need != need:
            return False
    for v, side_own, other in ((v1, side1, v2), (v2, side2, v1)):
        if g.degree(v) < 3:
            continue
        for x in bits(g.adj[v]):
            if g.degree(x) == 1:
                continue
            if g.adj[x] & ~g.adj[other] == 0:
                continue
            if g.adj[x] == side_own:
                continue
            return False
    return True


def find_anchor_edge(g: Graph) -> Optional[PairWitness]:
    """First adjacent cross pair satisfying the anchor conditions."""
    side1, side2 = _sides(g)
    for v1 in bits(side1):
        if g.degree(v1) < 2:
            continue
        for v2 in bits(g.adj[v1] & side2):
            if g.degree(v2) < 2:
                continue
            if _anchor_conditions(g, side1, side2, v1, v2):
                return PairWitness("anchor_edge", v1, v2)
    return None


def find_near_twin_pair(g: Graph) -> Optional[PairWitness]:
    """Non-adjacent cross pair each missing exactly the other."""
    side1, side2 = _sides(g)
    for v1 in bits(side1):
        for v2 in bits(side2 & ~g.adj[v1]):
            if g.adj[v1] == side2 & ~(1 << v2) and g.adj[v2] == side1 & ~(1 << v1):
                return PairWitness("near_twin", v1, v2)
    return None


def _linked_stars_witness(g: Graph) -> Optional[PairWitness]:
    for v2 in range(g.n):
        if g.degree(v2) != 2:
            continue
        ends = list(bits(g.adj[v2]))
        for v1, x in (ends, ends[::-1]):
            rest_ok = True
            has_x_leaf = False
            for y in range(g.n):
                if y in (v1, v2, x):
                    continue
                nb = g.adj[y]
                if nb == 0 or nb & ~((1 << v1) | (1 << x)):
                    rest_ok = False
                    break
                if nb == 1 << x:
                    has_x_leaf = True
            if not rest_ok or not has_x_leaf:
                continue
            if g.adj[v1] & ~(1 << v2):  # v1 keeps a leaf of its own star
                return PairWitness("linked_stars", v1, v2)
    return None


def bipartite_two_family(g: Graph) -> PairWitness:
    """Classify into star / linked_stars / dominating_edge / near_twin / none.

    Requires a bipartite graph with no isolated vertices.
    """
    side1, side2 = _sides(g)
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise PreconditionError("isolated vertices are excluded")
    center = is_star(g)
    if center is not None:
        return PairWitness("star", center, None)
    hit = _linked_stars_witness(g)
    if hit is not None:
        return hit
    for v1 in bits(side1):
        if g.adj[v1] != side2:
            continue
        for v2 in bits(g.adj[v1]):
            if g.adj[v2] == side1:
                return PairWitness("dominating_edge", v1, v2)
    twin = find_near_twin_pair(g)
    if twin is not None:
        return twin
    return PairWitness("none", None, None)
