"""chi as it was computed before the greedy pass and the branch and bound
shared one saturation table: a greedy that kept its own table, and a branch
and bound that recomputed each uncolored vertex's saturation from its
neighborhood at every node.  The fast ``chromatic_number`` must give the
same value, witness and polls, so its search makes the same decisions.

Shared by ``tests/test_coloring.py`` and the slow tier in ``tests_slow/``.
"""

from irrcolor import budget
from irrcolor.coloring import Coloring, max_clique
from irrcolor.graphs import bits


def reference_dsatur_greedy(g):
    n = g.n
    colors = [-1] * n
    sat = [0] * n
    # (saturation, degree, -u) as one integer: the degree and index part
    # stays below n * n
    rank = [g.degree(u) * n + n - 1 - u for u in range(n)]
    square = n * n
    uncolored = list(range(n))
    for _ in range(n):
        top = -1
        for u in uncolored:
            key = sat[u].bit_count() * square + rank[u]
            if key > top:
                top, v = key, u
        uncolored.remove(v)
        s = sat[v]
        c = (~s & (s + 1)).bit_length() - 1
        colors[v] = c
        for u in bits(g.adj[v]):
            sat[u] |= 1 << c
    return colors


def reference_chromatic_number(g, token=None):
    n = g.n
    if n == 0:
        return 0, Coloring(())
    greedy = reference_dsatur_greedy(g)
    best = greedy[:]
    best_k = max(greedy) + 1
    clique = max_clique(g)
    lb = clique.bit_count()
    if lb < best_k:
        colors = [-1] * n
        clique_vs = list(bits(clique))
        for i, v in enumerate(clique_vs):
            colors[v] = i

        def search(uncolored, used):
            nonlocal best, best_k
            budget.check(token)
            if used >= best_k:
                return
            if not uncolored:
                best = colors[:]
                best_k = used
                return

            def saturation(u):
                forb = 0
                for w in bits(g.adj[u]):
                    if colors[w] >= 0:
                        forb |= 1 << colors[w]
                return (forb.bit_count(), g.degree(u), -u)

            v = max(uncolored, key=saturation)
            rest = [u for u in uncolored if u != v]
            forb = 0
            for w in bits(g.adj[v]):
                if colors[w] >= 0:
                    forb |= 1 << colors[w]
            for c in range(min(used + 1, best_k - 1)):
                if forb >> c & 1:
                    continue
                colors[v] = c
                search(rest, max(used, c + 1))
                colors[v] = -1

        search([v for v in range(n) if colors[v] < 0], lb)
    return best_k, Coloring(tuple(best)).canonical()
