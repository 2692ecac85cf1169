#!/usr/bin/env python3
"""Regenerate the packaged graph6 test assets.

Enumerates small graphs up to isomorphism by brute force: all edge subsets,
connectivity filter, then a canonical form taken as the minimum adjacency bit
string over degree-respecting vertex orders.  Counts are checked against the
known values for connected graphs (1, 1, 2, 6, 21, 112 for n = 1..6) and
connected bipartite graphs (1, 1, 1, 3, 5, 17, 44 for n = 1..7).

Usage: python3 tools/make_assets.py
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from irrcolor.graphs import Graph, component_count, from_edge_list, to_graph6

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
BIPARTITE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44}


def canonical_key(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    base = sorted(range(n), key=lambda v: (-deg[v], v))
    groups = []
    i = 0
    while i < len(base):
        j = i
        while j < len(base) and deg[base[j]] == deg[base[i]]:
            j += 1
        groups.append(base[i:j])
        i = j
    best = None
    for perms in product(*(permutations(gr) for gr in groups)):
        order = [v for gr in perms for v in gr]
        pos = {v: i for i, v in enumerate(order)}
        bits = tuple(
            1 if (min(order[i], order[j]), max(order[i], order[j])) in edges else 0
            for j in range(1, n)
            for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    return (n, best)


def _connected_classes(n: int, pair_lists) -> list[Graph]:
    """One connected graph per isomorphism class among the edge subsets of
    each list of vertex pairs, the first found with the lists and subsets
    taken in order, listed by canonical key."""
    seen = {}
    for pairs in pair_lists:
        for picks in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if picks >> i & 1)
            g = from_edge_list(n, edges)
            if component_count(g) == 1:
                seen.setdefault(canonical_key(n, edges), g)
    return [seen[k] for k in sorted(seen)]


def connected_graphs(n: int) -> list[Graph]:
    return _connected_classes(n, [list(combinations(range(n), 2))])


def connected_bipartite_graphs(n: int) -> list[Graph]:
    # parts of a and n - a vertices; a = 0 gives the one vertex when n = 1,
    # and an edgeless, so disconnected, graph otherwise
    return _connected_classes(n, ([(i, a + j) for i in range(a) for j in range(n - a)] for a in range(n // 2 + 1)))


def main() -> None:
    data_dir = Path(__file__).resolve().parent.parent / "src" / "irrcolor" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    lines = []
    for n in range(1, 7):
        graphs = connected_graphs(n)
        assert len(graphs) == CONNECTED_COUNTS[n], (n, len(graphs))
        lines += [to_graph6(g).decode("ascii") for g in graphs]
        print(f"connected n={n}: {len(graphs)}")
    (data_dir / "connected_le6.g6").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to connected_le6.g6")

    lines = []
    for n in range(1, 8):
        graphs = connected_bipartite_graphs(n)
        assert len(graphs) == BIPARTITE_COUNTS[n], (n, len(graphs))
        lines += [to_graph6(g).decode("ascii") for g in graphs]
        print(f"bipartite connected n={n}: {len(graphs)}")
    (data_dir / "bipartite_connected_le7.g6").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to bipartite_connected_le7.g6")


if __name__ == "__main__":
    main()
