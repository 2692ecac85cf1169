"""Benchmark inputs: seeded graph sets, written as graph6 by the harness itself.

Every workload draws a fixed base set of graphs; each pass of a run then
relabels each graph's vertices with a permutation drawn from ``--seed``
and the pass number.  The base sets are fixed
because the solvers' cost varies strongly from graph to graph (one
committee search takes 0.01 s, the next 1.3 s), so fresh random graphs per
seed would make the seed, not the program, set the timings.  A relabelling
alters no invariant value, so the same golden answers hold for every seed
while each seed is still a different input.

Nothing here calls the program: the graph6 encoder and decoder, the
connectivity test and the canonical form are the harness's own, so a defect
in the program's codec cannot change the inputs it is measured on.
"""

from __future__ import annotations

import gzip
import importlib.util
import random
from itertools import permutations
from pathlib import Path

Edges = tuple[tuple[int, int], ...]
Graph = tuple[int, Edges]  # (vertex count, sorted edge pairs u < v)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 record for a graph with at most 62 vertices."""
    present = set(edges)
    bitstream = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bitstream += [0] * (-len(bitstream) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bitstream), 6):
        group = 0
        for b in bitstream[k:k + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


def decode_graph6(line: str) -> Graph:
    n = ord(line[0]) - 63
    bitstream = []
    for ch in line[1:]:
        group = ord(ch) - 63
        bitstream.extend(group >> (5 - i) & 1 for i in range(6))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, tuple(sorted(p for p, b in zip(pairs, bitstream) if b))


def _adjacency(n: int, edges: Edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_connected(n: int, edges: Edges) -> bool:
    if n == 0:
        return False
    adj = _adjacency(n, edges)
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << n) - 1


def relabel(graph: Graph, perm: list[int]) -> Graph:
    n, edges = graph
    return n, tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def canonical_form(graph: Graph) -> str:
    """Smallest graph6 record over the relabellings that sort vertices by
    degree.  Degree is an isomorphism invariant, so two graphs are
    isomorphic exactly when their forms are equal.  Meant for n <= 7."""
    n, edges = graph
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(degree[v], []).append(v)
    groups = [classes[d] for d in sorted(classes)]
    best = None

    def extend(k: int, order: list[int]) -> None:
        nonlocal best
        if k == len(groups):
            perm = [0] * n
            for pos, v in enumerate(order):
                perm[v] = pos
            code = encode_graph6(*relabel(graph, perm))
            if best is None or code < best:
                best = code
            return
        for arrangement in permutations(groups[k]):
            extend(k + 1, order + list(arrangement))

    extend(0, [])
    return best


def _atlas_path() -> Path:
    """networkx's bundled atlas file, located without importing networkx."""
    spec = importlib.util.find_spec("networkx")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("networkx is not installed; its graph atlas supplies the n=7 inputs")
    return Path(spec.submodule_search_locations[0]) / "generators" / "atlas.dat.gz"


def atlas_graphs() -> list[Graph]:
    """Every graph of the atlas (all graphs on 0..7 vertices), in atlas order."""
    entries: list[tuple[list[int], list[tuple[int, int]]]] = []
    with gzip.open(_atlas_path(), "rt", encoding="ascii") as fh:
        for line in fh:
            head, _, rest = line.partition(" ")
            if head == "GRAPH":
                entries.append(([0], []))
            elif head == "NODES":
                entries[-1][0][0] = int(rest)
            else:
                u, v = sorted(map(int, line.split()))
                entries[-1][1].append((u, v))
    return [(n, tuple(sorted(edges))) for (n,), edges in entries]


def connected_atlas(asset_le6: Path) -> list[Graph]:
    """The 853 connected 7-vertex atlas graphs, after checking the atlas.

    Checks the connected counts for n = 1..7 against OEIS A001349, and that
    the connected atlas graphs on at most 6 vertices are, up to isomorphism,
    exactly the packaged ``connected_le6.g6`` asset.
    """
    connected = [g for g in atlas_graphs() if is_connected(*g)]
    counts: dict[int, int] = {}
    for n, _ in connected:
        counts[n] = counts.get(n, 0) + 1
    if counts != CONNECTED_COUNTS:
        raise RuntimeError(f"atlas connected counts {counts} differ from A001349 {CONNECTED_COUNTS}")
    asset = [decode_graph6(line) for line in asset_le6.read_text(encoding="ascii").split()]
    atlas_forms = sorted(canonical_form(g) for g in connected if g[0] <= 6)
    asset_forms = sorted(canonical_form(g) for g in asset)
    if atlas_forms != asset_forms or len(set(asset_forms)) != len(asset_forms):
        raise RuntimeError("the atlas disagrees with the packaged connected_le6.g6 asset")
    return [g for g in connected if g[0] == 7]


def random_connected(rng: random.Random, n: int, p: float) -> Graph:
    """Connected G(n, p) by rejection."""
    while True:
        edges = tuple(sorted((u, v) for v in range(1, n) for u in range(v) if rng.random() < p))
        if is_connected(n, edges):
            return n, edges


def random_bipartite(rng: random.Random, n: int, p: float) -> Graph:
    """Connected bipartite graph with minimum degree >= 2, by rejection.

    The side sizes are drawn uniformly from 2..n-2 and each cross pair is an
    edge with probability ``p``.
    """
    while True:
        left = rng.randint(2, n - 2)
        edges = tuple((u, v) for u in range(left) for v in range(left, n) if rng.random() < p)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= 2 and is_connected(n, edges):
            return n, edges


def seeded_relabel(graphs: list[Graph], key: str) -> list[Graph]:
    """Each graph under its own vertex permutation drawn from ``key``."""
    rng = random.Random(key)
    out = []
    for g in graphs:
        perm = list(range(g[0]))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out

