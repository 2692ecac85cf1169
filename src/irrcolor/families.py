"""Generators for the graph families of the paper's constructions.

Each generator returns a FamilyInstance: the graph, optional vertex labels,
the invariant values the construction is designed to achieve (flagged exact
vs lower bound), and the construction's own coloring when it has one.
``GENERATORS`` names every integer-parameter kind for ``generate`` and the
CLI's ``gen``; ``gen`` writes the claims to its sidecar.  The CLI's verify
table builds its instances the same way and reads their expected values
from ``claims``.

Fixture graphs are frozen literal edge lists.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coloring import Coloring, chromatic_number, is_proper
from .errors import ParameterError
from .graphs import (
    Graph,
    _unchecked,
    bipartition,
    component_count,
    corona_k1,
    from_edge_list,
    mask_from,
    merge_copies,
)


class Claim(NamedTuple):
    """A claimed invariant value; ``exact=False`` marks a lower bound."""

    value: object
    exact: bool = True


class FamilyInstance(NamedTuple):
    graph: Graph
    labels: Optional[tuple[str, ...]]
    claims: dict[str, Claim]
    coloring: Optional[Coloring] = None
    source: str = ""

    def label_index(self, name: str) -> int:
        if self.labels is None:
            raise KeyError(name)
        return self.labels.index(name)


def _instance(graph, labels, claims, coloring, source) -> FamilyInstance:
    if component_count(graph) > 1:
        raise AssertionError(f"{source}: generated graph is disconnected")
    if coloring is not None and not is_proper(graph, coloring):
        raise AssertionError(f"{source}: attached coloring is not proper")
    return FamilyInstance(graph, labels, claims, coloring, source)


# --- standard graphs ----------------------------------------------------------


def gen_complete(n: int) -> FamilyInstance:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    col = Coloring(tuple(range(n)))
    return _instance(
        g,
        tuple(f"v{i+1}" for i in range(n)),
        {
            "chi": Claim(n),
            "chi_i": Claim(n),
            "irc_colorable": Claim(False),
        },
        col,
        f"complete({n})",
    )


def gen_complete_bipartite(m: int, n: int) -> FamilyInstance:
    """K(m,n), colored by its sides.  For m, n >= 2 it also claims that
    K(m,n) is committee-colorable with chi_irc = 2:
      * every class of a proper coloring lies inside one side;
      * if one side holds two classes, take a and b from them and any r on
        the other side: N[b] holds the other side and N[r] holds a, so
        every committee through a, b and r leaves a no private neighbor;
      * in the coloring by sides each committee is an edge {a, r}, and a
        keeps the other n - 1 >= 1 vertices of r's side as private
        neighbors, r the other m - 1 >= 1 of a's.
    """
    if m < 1 or n < 1:
        raise ParameterError("complete bipartite needs m, n >= 1")
    g = from_edge_list(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    col = Coloring(tuple([0] * m + [1] * n))
    claims = {"chi": Claim(2), "chi_i": Claim(2)}
    if m >= 2 and n >= 2:
        claims.update(irc_colorable=Claim(True), chi_irc=Claim(2))
    return _instance(
        g,
        tuple(f"a{i+1}" for i in range(m)) + tuple(f"b{j+1}" for j in range(n)),
        claims,
        col,
        f"complete_bipartite({m},{n})",
    )


def gen_star(n: int) -> FamilyInstance:
    if n < 2:
        raise ParameterError("star needs n >= 2")
    g = from_edge_list(n, [(0, i) for i in range(1, n)])
    col = Coloring(tuple([0] + [1] * (n - 1)))
    return _instance(
        g,
        ("c",) + tuple(f"l{i}" for i in range(1, n)),
        {"chi_i": Claim(2), "irc_colorable": Claim(False)},
        col,
        f"star({n})",
    )


def gen_cycle(n: int) -> FamilyInstance:
    """C_n, colored by parity, the last vertex of an odd cycle in a third
    color.  It claims chi_i = chi_gamma = max(chi, ceil(n/3)), proved in
    ``gen_path``."""
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    g = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    if n % 2 == 0:
        col = Coloring(tuple(i % 2 for i in range(n)))
    else:
        col = Coloring(tuple([i % 2 for i in range(n - 1)] + [2]))
    claims = _rainbow_claims(2 + n % 2, n)
    if n % 2 == 1:
        claims["irc_colorable"] = Claim(False)
    if n == 4:
        claims["irc_colorable"] = Claim(True)
        claims["chi_irc"] = Claim(2)
    return _instance(g, None, claims, col, f"cycle({n})")


def gen_path(n: int) -> FamilyInstance:
    """P_n, colored by parity.  On P_n and C_n, chi_i = chi_gamma = k =
    max(chi, ceil(n/3)), with ir = gamma = ceil(n/3) (gamma is textbook;
    ir >= n / (2 Delta - 1) = n/3 by Bollobas and Cockayne, 1979, and
    ir <= gamma):
      * chi_i >= max(chi, ir) = k, since a rainbow set needs a color per
        member;
      * chi_i <= chi_gamma, since a minimal dominating set is maximal
        irredundant (Cockayne, Hedetniemi and Miller, 1978);
      * when k >= 3, give a minimum dominating set its ceil(n/3) <= k
        distinct colors and extend greedily: a vertex has at most two
        neighbors, so one of the k colors is free, and chi_gamma <= k;
      * otherwise k <= 2 and the graph is P_1..P_6, C_4 or C_6.  With
        gamma = 1 any proper chi-coloring serves; the others have a minimum
        dominating set of two vertices at odd distance, rainbow under the
        coloring by parity: {0, 3} on P_4 and C_6, {1, 4} on P_5 and P_6,
        {0, 1} on C_4.
    """
    if n < 1:
        raise ParameterError("path needs n >= 1")
    g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    col = Coloring(tuple(i % 2 for i in range(n)))
    claims = _rainbow_claims(min(n, 2), n)
    if n >= 2:
        claims["irc_colorable"] = Claim(False)
    return _instance(g, None, claims, col, f"path({n})")


def _rainbow_claims(chi: int, n: int) -> dict[str, Claim]:
    """chi_i = chi_gamma = max(chi, ceil(n/3)) on P_n and C_n (``gen_path``)."""
    k = max(chi, -(-n // 3))
    return {"chi_i": Claim(k), "chi_gamma": Claim(k)}


# --- lower-bound family: clique corona plus extra pendants --------------------


def gen_family_a(n: int, k: int) -> FamilyInstance:
    """Corona of K_k with n-2k extra vertices pendant on one clique vertex.

    Designed so chromatic number, lower irredundance number and the
    irredundance chromatic number all equal k (k >= 2).
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if n < 2 * k:
        raise ParameterError("order must be at least 2k")
    g = corona_k1(
        from_edge_list(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    )
    extra = [(0, 2 * k + t) for t in range(n - 2 * k)]
    g = from_edge_list(n, list(g.edges()) + extra)
    labels = (
        tuple(f"v{i+1}" for i in range(k))
        + tuple(f"p{i+1}" for i in range(k))
        + tuple(f"u{t+1}" for t in range(n - 2 * k))
    )
    if k >= 2:
        colors = list(range(k)) + [(i + 1) % k for i in range(k)] + [1] * (n - 2 * k)
        col = Coloring(tuple(colors))
        claims = {"chi": Claim(k), "ir": Claim(k), "chi_i": Claim(k)}
    else:
        col = Coloring(tuple([0] + [1] * (n - 1)))
        claims = {}
    return _instance(g, labels, claims, col, f"A({n},{k})")


# --- upper-bound family: merged copies of the pendant-heavy block -------------


def _block_edges(k: int, l: int) -> tuple[int, list[tuple[int, int]]]:
    # order: clique 0..k-3, u=k-2, a=k-1, b=k, v=k+1, pendants k+2..
    clique = list(range(k - 2))
    u, a, b, v = k - 2, k - 1, k, k + 1
    pendants = list(range(k + 2, 2 * k + l))
    edges = [(i, j) for i in clique for j in clique if i < j]
    for c in clique:
        edges += [(c, a), (c, v), (c, u)]
    edges += [(a, v), (u, v), (b, v), (b, u)]
    edges += [(v, p) for p in pendants]
    return 2 * k + l, edges


def gen_block_h(k: int, l: int) -> FamilyInstance:
    """The building block: a clique joined to a, v, u, with b tied to v and u,
    u tied to v, and k+l-2 pendants hanging off v.  The vertex v sees
    everything, so one copy already has ir = 1.
    """
    if k < 3:
        raise ParameterError("k must be at least 3")
    if l < 1:
        raise ParameterError("l must be at least 1")
    n, edges = _block_edges(k, l)
    g = from_edge_list(n, edges)
    labels = (
        tuple(f"c{i+1}" for i in range(k - 2))
        + ("u", "a", "b", "v")
        + tuple(f"p{j+1}" for j in range(k + l - 2))
    )
    _, col = chromatic_number(g)
    claims = {"chi": Claim(k), "ir": Claim(1), "chi_i": Claim(k)}
    return _instance(g, labels, claims, col, f"H({k},{l})")


def gen_family_z(k: int, l: int) -> FamilyInstance:
    """l copies of the block merged along the clique plus u.

    Achieves chi = k, ir = l and chi_i = k + l - 1.
    """
    block = gen_block_h(k, l)
    shared = mask_from(range(k - 1))  # clique vertices and u, a prefix by layout
    g = merge_copies(block.graph, shared, l)
    labels = list(block.labels[: k - 1])
    for i in range(1, l + 1):
        labels += [f"a{i}", f"b{i}", f"v{i}"]
        labels += [f"p{i}.{j+1}" for j in range(k + l - 2)]
    _, col = chromatic_number(g)
    claims = {"chi": Claim(k), "ir": Claim(l), "chi_i": Claim(k + l - 1)}
    return _instance(g, tuple(labels), claims, col, f"Z({k},{l})")


# --- realizability family: clique with pendants on one vertex -----------------


def gen_family_b(n: int, k: int) -> FamilyInstance:
    """K_k plus n-k pendants on its first vertex; chi_i = k for 2 <= k <= n."""
    if not 2 <= k <= n:
        raise ParameterError("need 2 <= k <= n")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(0, k + t) for t in range(n - k)]
    g = from_edge_list(n, edges)
    colors = list(range(k)) + [1] * (n - k)
    col = Coloring(tuple(colors))
    labels = tuple(f"v{i+1}" for i in range(k)) + tuple(
        f"u{t+1}" for t in range(n - k)
    )
    claims = {"chi": Claim(k), "chi_i": Claim(k)}
    return _instance(g, labels, claims, col, f"B({n},{k})")


# --- committee-colorable constructions ----------------------------------------


def _gadget_edges(base: int) -> list[tuple[int, int]]:
    # 10-cycle on base..base+9 with chords (1,6), (2,5), (7,10) in 1-based terms
    edges = [(base + i, base + (i + 1) % 10) for i in range(10)]
    edges += [(base, base + 5), (base + 1, base + 4), (base + 6, base + 9)]
    return edges


def gen_cut_vertex(k: int) -> FamilyInstance:
    """k chorded-cycle gadgets star-joined through one hub vertex.

    Committee-colorable with the 3 classes (side one, side two, hub) even
    though the hub is a cut vertex.  The hub attaches to the endpoints of
    each gadget's long chord; attaching it to a vertex with a degree-2
    neighbor instead would break the committee property.
    """
    if k < 3:
        raise ParameterError("k must be at least 3")
    hub = 10 * k
    edges = []
    for i in range(k):
        edges += _gadget_edges(10 * i)
        edges += [(10 * i, hub), (10 * i + 5, hub)]
    g = from_edge_list(hub + 1, edges)
    colors = []
    for i in range(k):
        colors += [j % 2 for j in range(10)]
    colors.append(2)
    col = Coloring(tuple(colors))
    # each gadget must be bipartite for the 2-sided classes to be proper
    hubless = from_edge_list(hub, [e for e in edges if hub not in e])
    if bipartition(hubless) is None:
        raise AssertionError("gadget union is not bipartite")
    labels = tuple(
        f"x{j+1}^{i+1}" for i in range(k) for j in range(10)
    ) + ("x",)
    claims = {
        "irc_colorable": Claim(True),
        "chi_irc": Claim(3, exact=False),
        "kappa": Claim(1),
    }
    return _instance(g, labels, claims, col, f"cut_vertex({k})")


def gen_bridge(k: int, l: int) -> FamilyInstance:
    """Two hub constructions joined by a single edge between their hubs."""
    if k < 3 or l < 3:
        raise ParameterError("both sides need at least 3 gadgets")
    left = gen_cut_vertex(k)
    right = gen_cut_vertex(l)
    off = left.graph.n
    edges = list(left.graph.edges())
    edges += [(u + off, v + off) for u, v in right.graph.edges()]
    hub1, hub2 = 10 * k, off + 10 * l
    edges.append((hub1, hub2))
    g = from_edge_list(off + right.graph.n, edges)
    # each side keeps its own classes, the right hub moving to a fourth
    colors = left.coloring.color_of + tuple(3 if c == 2 else c for c in right.coloring.color_of)
    col = Coloring(colors)
    labels = tuple(f"L.{s}" for s in left.labels) + tuple(
        f"R.{s}" for s in right.labels
    )
    claims = {
        "irc_colorable": Claim(True),
        "chi_irc": Claim(4, exact=False),
        "kappa_prime": Claim(1),
    }
    return _instance(g, labels, claims, col, f"bridge({k},{l})")


def _square_family_edges(k: int, core_edges: list[tuple[int, int]]):
    """Core on 0..k-1 plus, per core edge slot i -> i+1 (cyclic), two 4-cycles
    anchored at the endpoints."""
    edges = list(core_edges)
    labels = [f"v{i+1}" for i in range(k)]
    colors = list(range(k))
    for i in range(k):
        nxt = (i + 1) % k
        base = k + 8 * i
        v1, v2, v1p, v2p, u1, u2, u1p, u2p = range(base, base + 8)
        edges += [(v1, v2), (v1p, v2p), (v1, v1p), (v2, v2p)]
        edges += [(u1, u2), (u1p, u2p), (u1, u1p), (u2, u2p)]
        edges += [(i, v1), (i, u1), (nxt, v2), (nxt, u2)]
        a, b = i + 1, nxt + 1
        labels += [
            f"v[{a},{b},1]", f"v[{a},{b},2]", f"v'[{a},{b},1]", f"v'[{a},{b},2]",
            f"u[{a},{b},1]", f"u[{a},{b},2]", f"u'[{a},{b},1]", f"u'[{a},{b},2]",
        ]
        colors += [nxt, i, i, nxt, nxt, i, i, nxt]
    return 9 * k, edges, tuple(labels), Coloring(tuple(colors))


def gen_tilde(k: int) -> FamilyInstance:
    """Clique core with two anchored 4-cycles per cyclically consecutive core
    pair; committee-colorable with exactly k colors and no more."""
    if k < 3:
        raise ParameterError("k must be at least 3")
    core = [(i, j) for i in range(k) for j in range(i + 1, k)]
    n, edges, labels, col = _square_family_edges(k, core)
    g = from_edge_list(n, edges)
    claims = {"irc_colorable": Claim(True), "chi_irc": Claim(k)}
    return _instance(g, labels, claims, col, f"tilde({k})")


def gen_star_of_cycles(k: int) -> FamilyInstance:
    """The same construction over a cycle core; bipartite for even k, and the
    attached k-coloring still passes the committee check (lower bound only).
    """
    if k < 4 or k % 2:
        raise ParameterError("k must be even and at least 4")
    core = [(i, (i + 1) % k) for i in range(k)]
    n, edges, labels, col = _square_family_edges(k, core)
    g = from_edge_list(n, edges)
    if bipartition(g) is None:
        raise AssertionError("cycle-core construction should be bipartite")
    claims = {"irc_colorable": Claim(True), "chi_irc": Claim(k, exact=False)}
    return _instance(g, labels, claims, col, f"bipartite_star_of_cycles({k})")


# kind -> (generator, number of integer parameters)
GENERATORS = {
    "complete": (gen_complete, 1),
    "complete_bipartite": (gen_complete_bipartite, 2),
    "star": (gen_star, 1),
    "cycle": (gen_cycle, 1),
    "path": (gen_path, 1),
    "A": (gen_family_a, 2),
    "H": (gen_block_h, 2),
    "Z": (gen_family_z, 2),
    "B": (gen_family_b, 2),
    "cut_vertex": (gen_cut_vertex, 1),
    "bridge": (gen_bridge, 2),
    "tilde": (gen_tilde, 1),
    "bipartite_star_of_cycles": (gen_star_of_cycles, 1),
}


def generate(kind: str, *params: int) -> FamilyInstance:
    """The ``kind`` instance on ``params``; ParameterError for an unknown
    kind or the wrong number of parameters."""
    if kind not in GENERATORS:
        raise ParameterError(f"unknown family {kind!r}")
    fn, arity = GENERATORS[kind]
    if len(params) != arity:
        raise ParameterError(f"{kind} expects {arity} parameter(s)")
    return fn(*params)


def _prufer_tree(seq: tuple[int, ...], n: int) -> Graph:
    """The labeled tree on n >= 2 vertices with Pruefer sequence ``seq``.

    Linear decode: ``low`` is the lowest leaf not yet used, and a vertex that
    becomes a leaf below it is the next leaf at once."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    adj = [0] * n
    low = leaf = degree.index(1)
    for s in seq:
        adj[leaf] |= 1 << s
        adj[s] |= 1 << leaf
        degree[s] -= 1
        if degree[s] == 1 and s < low:
            leaf = s
        else:
            low += 1
            while degree[low] != 1:
                low += 1
            leaf = low
    # n - 1 is never the lowest leaf while another is left, so it ends the tree
    adj[leaf] |= 1 << (n - 1)
    adj[n - 1] |= 1 << leaf
    return _unchecked(tuple(adj))


# --- fixtures -----------------------------------------------------------------

_FIXTURES = {
    # 7-vertex tree that needs a third color before any maximal irredundant
    # set turns rainbow
    "tree7": dict(
        n=7,
        edges=[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6)],
        labels=("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
        claims={"chi_i": Claim(3)},
    ),
    # bipartite example carrying an anchor edge (0, 4)
    "anchor_sample": dict(
        n=8,
        edges=[
            (0, 4), (0, 5), (0, 6),
            (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
            (2, 3), (2, 5), (2, 6), (2, 7),
        ],
        labels=("v1", "b", "c", "t", "v2", "r2", "r3", "r4"),
        claims={"chi_i": Claim(2)},
    ),
    # the 6-cycle in 3+3 crown form; near twins across the hole
    "near_twin_sample": dict(
        n=6,
        edges=[(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)],
        labels=("a1", "a2", "a3", "b1", "b2", "b3"),
        claims={"chi_i": Claim(2)},
    ),
    # two 3-leaf stars linked through a degree-2 vertex
    "two_stars": dict(
        n=9,
        edges=[(0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (2, 6), (2, 7), (2, 8)],
        labels=("v1", "v2", "x", "l1", "l2", "l3", "m1", "m2", "m3"),
        claims={"chi_i": Claim(2)},
    ),
    # bipartite graph with a hub vertex whose same-side partners all leave
    # two external private neighbors on each side of the pair
    "epn_sample": dict(
        n=11,
        edges=[
            (0, 5), (0, 6), (0, 7), (0, 8),
            (1, 5), (1, 8), (1, 9), (1, 10),
            (2, 5), (2, 6), (2, 9), (2, 10),
            (3, 6), (3, 7), (3, 9), (3, 10),
            (4, 7), (4, 8), (4, 9), (4, 10),
        ],
        labels=("v*", "v1", "v2", "v3", "v4", "w1", "w2", "w3", "w4", "w5", "w6"),
        claims={"chi_irc": Claim(3, exact=False), "irc_colorable": Claim(True)},
        coloring=Coloring((0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2)),
    ),
}

def fixture(fixture_id: str) -> FamilyInstance:
    if fixture_id not in _FIXTURES:
        raise ParameterError(f"unknown fixture {fixture_id!r}")
    spec = _FIXTURES[fixture_id]
    g = from_edge_list(spec["n"], spec["edges"])
    return _instance(
        g,
        spec["labels"],
        dict(spec["claims"]),
        spec.get("coloring"),
        f"fixture:{fixture_id}",
    )
