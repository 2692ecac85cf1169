"""The irredundant-set walk as it was before the layer after the last
complete one could be built in part, and its four readers as they read
it: every layer is built whole, by ``per_bit_grow``, the table-free form
of the walk's kernel; ir and gamma take the first set of the first layer
with one in ``itertools.combinations`` order, and the rainbow solvers try
the candidates of whole layers in (size, mask) order.

The fast walk must give the same values, witnesses and families whatever
order its readers come in.  Shared by ``tests/test_irredundance.py`` and
the slow tier in ``tests_slow/``.
"""

from itertools import islice, permutations

from irrcolor import budget, irredundance
from irrcolor.coloring import (
    RainbowCert,
    add_clique,
    chromatic_number,
    gamma_chromatic_number,
    irredundance_chromatic_number,
)
from irrcolor.graphs import bits, from_edge_list
from irrcolor.irredundance import gamma_number, ir_number, maximal_irredundant_sets, minimal_dominating_sets

from conftest import Polls


def per_bit_grow(walk, token):
    """The reference for ``_Walk.grow``: the same walk with no half tables,
    building N[V - N[S]] and each member's killers one vertex at a time."""
    if not walk.frontier:
        return False
    closed, vertices = walk.closed, walk.vertices
    maximal_sets, dominating_sets, frontier = [], [], []
    for s, covered, once, children in walk.frontier:
        while children:
            low = children & -children
            children ^= low
            budget.check(token)
            w = low.bit_length() - 1
            fresh = closed[w] & ~covered
            child, child_covered, child_once = s | low, covered | fresh, once & ~closed[w] | fresh
            joiners = 0
            for x in bits(vertices & ~child_covered):
                joiners |= closed[x]
            for u in bits(child) if joiners else ():
                killers = -1
                for x in bits(closed[u] & child_once):
                    killers &= closed[x]
                joiners &= ~killers
            if not joiners:
                maximal_sets.append(child)
                if child_covered == vertices:
                    dominating_sets.append(child)
            elif joiners & (low - 1):
                frontier.append((child, child_covered, child_once, joiners & (low - 1)))
    walk.layers.append((maximal_sets, dominating_sets))
    walk.frontier = frontier
    return True


def reference_layers(g):
    """Yield the layers of the walk, ``(maximal, dominating)`` in mask
    order, each built whole by ``per_bit_grow``; the walk object holds only
    the graph's closed neighborhoods, its vertex mask and the frontier."""
    walk = irredundance._Walk(g, None)
    yield walk.layers[0]
    while per_bit_grow(walk, None):
        yield walk.layers[-1]


class _Built:
    """The layers of ``reference_layers``, each built once, when a reader
    first asks for it."""

    def __init__(self, g):
        self.layers, self.rest = [], reference_layers(g)

    def __iter__(self):
        size = 0
        while True:
            if size == len(self.layers):
                layer = next(self.rest, None)
                if layer is None:
                    return
                self.layers.append(layer)
            yield self.layers[size]
            size += 1


def _first_combination(sets):
    return min(sets, key=lambda s: tuple(bits(s)))


def reference_ir(layers):
    s = _first_combination(next(maximal for maximal, _ in layers if maximal))
    return s.bit_count(), s


def reference_gamma(layers, greedy):
    """``greedy`` is the greedy dominating set, the witness when no smaller
    set dominates."""
    for _, (_, dominating) in zip(range(greedy.bit_count()), layers):
        if dominating:
            s = _first_combination(dominating)
            return s.bit_count(), s
    return greedy.bit_count(), greedy


def reference_min_rainbow(g, layers, family):
    chi, _ = chromatic_number(g)
    best = lower = None
    for size, layer in enumerate(layers):
        for s in layer[family]:
            if lower is None:
                lower = max(chi, size)
            k, col = chromatic_number(add_clique(g, s))
            if best is None or k < best[0]:
                best = (k, RainbowCert(col, s))
                if k == max(lower, size):
                    break
        if best is not None and best[0] <= max(lower, size + 1):
            break
    return best


READERS = (("ir", ir_number), ("gamma", gamma_number), ("chi_i", irredundance_chromatic_number),
           ("chi_gamma", gamma_chromatic_number))


def relabeled(g, rng):
    """``g`` with its vertices renamed by a random permutation."""
    order = list(range(g.n))
    rng.shuffle(order)
    return from_edge_list(g.n, [(order[u], order[v]) for u, v in g.edges()])


def _read_on(g, scope, families):
    """After the readers: with ``families`` the two enumerators' families,
    else the walk's layers once it has completed the layer it was in."""
    if families:
        return [list(maximal_irredundant_sets(g, scope)), list(minimal_dominating_sets(g, scope))]
    walk = scope.memo[("walk", g)]
    walk.grow(scope)
    return walk.layers


def assert_reader_orders(g, families=True) -> None:
    """ir, gamma, chi_i and chi_gamma give the reference's values and
    witnesses after the four readers in every order under one Scope, and
    without one.  After each order the two enumerators give the
    reference's families, or without ``families`` the walk completes its
    last layer as the reference builds it.  The Scope's polls are the same
    in every order, and with ``families`` those of the order that walks
    every layer first: each set is built once."""
    layers = _Built(g)
    want = {
        "ir": reference_ir(layers),
        "gamma": reference_gamma(layers, irredundance._greedy_dominating(g)),
        "chi_i": reference_min_rainbow(g, layers, 0),
        "chi_gamma": reference_min_rainbow(g, layers, 1),
    }
    polls = set()
    if families:
        whole = Polls()
        scope = budget.scope(whole)
        after = _read_on(g, scope, families)
        assert after == [sorted(s for layer in layers for s in layer[family]) for family in (0, 1)]
        assert {name: solve(g, scope) for name, solve in READERS} == want
        polls.add(whole.polls)
    for order in permutations(READERS):
        token = Polls()
        scope = budget.scope(token)
        assert {name: solve(g, scope) for name, solve in order} == want, [name for name, _ in order]
        got = _read_on(g, scope, families)
        assert got == (after if families else list(islice(layers, len(got)))), [name for name, _ in order]
        polls.add(token.polls)
        assert len(polls) == 1, [name for name, _ in order]
    assert {name: solve(g) for name, solve in READERS} == want
