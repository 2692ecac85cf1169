import random
import time
from itertools import combinations, islice

import pytest

from irrcolor import budget, irredundance
from irrcolor.budget import Deadline
from irrcolor.coloring import gamma_chromatic_number, irredundance_chromatic_number
from irrcolor.errors import ParameterError, PreconditionError, SearchCancelled
from irrcolor.families import gen_family_z
from irrcolor.graphs import bits, from_edge_list, mask_from
from irrcolor.irredundance import (
    gamma_number,
    ir_number,
    is_dominating,
    is_irredundant,
    is_maximal_irredundant,
    maximal_irredundant_sets,
    minimal_dominating_sets,
    private_neighbors,
)

from conftest import (
    Polls,
    complete,
    cycle,
    path,
    random_connected,
    rainbow_gnp_graphs,
    random_graph,
    spy_walks,
    tree7,
    walk_nodes,
)
from walk_reference import assert_reader_orders, per_bit_grow, reference_gamma, reference_ir, reference_layers, relabeled


def test_private_neighbors_examples():
    c4 = cycle(4)
    assert private_neighbors(c4, 0, mask_from([0, 2])) == mask_from([0])
    g = tree7()
    for v in range(7):
        assert private_neighbors(g, v, 1 << v) == g.closed(v)
    k5 = complete(5)
    assert private_neighbors(k5, 1, mask_from([0, 1])) == 0
    with pytest.raises(PreconditionError):
        private_neighbors(c4, 1, mask_from([0, 2]))


def test_is_irredundant():
    c4 = cycle(4)
    assert is_irredundant(c4, 0)  # empty set, vacuously
    assert is_irredundant(c4, mask_from([0, 2]))
    assert not is_irredundant(complete(3), mask_from([0, 1]))


def test_is_maximal_irredundant():
    c4 = cycle(4)
    assert not is_maximal_irredundant(c4, mask_from([0]))
    assert is_maximal_irredundant(c4, mask_from([0, 2]))
    for n in range(2, 6):
        assert is_maximal_irredundant(complete(n), 1)


def test_maximal_irredundant_definitional_identity(connected_le6):
    rng = random.Random(23)
    for g in [*(random_graph(rng, rng.randint(1, 7)) for _ in range(60)), *connected_le6]:
        for s in range(1 << g.n):
            expected = is_irredundant(g, s) and all(
                not is_irredundant(g, s | (1 << v))
                for v in bits(g.vertices & ~s)
            )
            assert is_maximal_irredundant(g, s) == expected


def test_maximal_irredundant_sets_c4():
    # all six vertex pairs, and nothing else
    got = list(maximal_irredundant_sets(cycle(4)))
    assert got == [3, 5, 6, 9, 10, 12]
    assert list(maximal_irredundant_sets(complete(3))) == [1, 2, 4]


def _layer_sets(g, depth):
    """The maximal irredundant and the minimal dominating sets of the walk's
    layers 0..depth, each family in ascending mask order."""
    layers = list(islice(irredundance._layers(g, None), depth + 1))
    return [sorted(s for layer in layers for s in layer[family]) for family in (0, 1)]


def test_maximal_irredundant_sets_cap_and_order():
    g = tree7()
    full = list(maximal_irredundant_sets(g))
    assert full == sorted(full)
    assert _layer_sets(g, 2)[0] == [s for s in full if s.bit_count() <= 2]


def test_walk_layers_hold_the_sets_of_their_size(connected_le6):
    # layer d keeps both set kinds, maximal irredundant and minimal
    # dominating, of d vertices each in mask order, and the layers end at
    # the largest irredundant set
    rng = random.Random(12)
    graphs = [complete(0), tree7(), *connected_le6, *(random_graph(rng, n, 0.3) for n in range(8, 13))]
    for g in graphs:
        layers = list(irredundance._layers(g, None))
        assert len(layers) == len(walk_nodes(g))
        mir, mds = _definitional_maximal_irredundant(g), _definitional_minimal_dominating(g)
        for size, (maximal, dominating) in enumerate(layers):
            assert maximal == [s for s in mir if s.bit_count() == size]
            assert dominating == [s for s in mds if s.bit_count() == size]
    assert list(irredundance._layers(complete(0), None)) == [([], [0])]


def test_fig_tree_contains_named_maximal_set():
    g = tree7()
    assert is_maximal_irredundant(g, mask_from([0, 1, 4]))  # {v1, v2, v5}


def test_ir_number():
    for n in range(1, 6):
        assert ir_number(complete(n))[0] == 1
    value, witness = ir_number(cycle(4))
    assert value == 2 and is_maximal_irredundant(cycle(4), witness)
    with pytest.raises(ParameterError):
        ir_number(complete(0))


def test_ir_number_matches_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        best = min(s.bit_count() for s in maximal_irredundant_sets(g))
        assert ir_number(g)[0] == best


def test_is_dominating():
    c4 = cycle(4)
    assert is_dominating(c4, c4.vertices)
    assert not is_dominating(c4, mask_from([0]))
    assert is_dominating(complete(4), mask_from([2]))


def test_minimal_dominating_sets_c4():
    got = list(minimal_dominating_sets(cycle(4)))
    assert got == [3, 5, 6, 9, 10, 12]
    assert list(minimal_dominating_sets(complete(3))) == [1, 2, 4]


def test_minimal_dominating_sets_are_maximal_irredundant():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        for d in minimal_dominating_sets(g):
            assert is_maximal_irredundant(g, d)


def test_gamma_number():
    for n in range(1, 6):
        assert gamma_number(complete(n))[0] == 1
    assert gamma_number(cycle(4))[0] == 2
    value, witness = gamma_number(tree7())
    assert is_dominating(tree7(), witness) and witness.bit_count() == value


def test_gamma_matches_enumeration_and_ir_bound():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        best = min(
            (mask_from(c).bit_count()
             for k in range(0, g.n + 1)
             for c in combinations(range(g.n), k)
             if is_dominating(g, mask_from(c))),
        )
        assert gamma_number(g)[0] == best
        if g.n >= 1:
            assert ir_number(g)[0] <= gamma_number(g)[0]


# --- the hereditary walk behind both enumerators ------------------------------


def _definitional_maximal_irredundant(g):
    return [s for s in range(1, 1 << g.n) if is_maximal_irredundant(g, s)]


def _definitional_minimal_dominating(g):
    return [
        s for s in range(1 << g.n)
        if is_dominating(g, s) and all(not is_dominating(g, s & ~(1 << v)) for v in bits(s))
    ]


def _all_graphs_up_to_4():
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield from_edge_list(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])


def _first_combination(g, sizes, accept):
    """The first set in ``itertools.combinations`` order, over ``sizes``
    ascending, that ``accept`` takes; None when there is none."""
    for size in sizes:
        for combo in combinations(range(g.n), size):
            if accept(mask_from(combo)):
                return mask_from(combo)
    return None


def test_enumerators_match_definitional_scan(connected_le6, bipartite_le7):
    rng = random.Random(8)
    graphs = [
        *connected_le6,
        *bipartite_le7,
        *_all_graphs_up_to_4(),
        *(random_graph(rng, n, 0.3) for n in range(8, 13)),
    ]
    for g in graphs:
        mir = _definitional_maximal_irredundant(g)
        assert list(maximal_irredundant_sets(g)) == mir
        for depth in (1, 2, 3):
            assert _layer_sets(g, depth)[0] == [s for s in mir if s.bit_count() <= depth]
        assert list(minimal_dominating_sets(g)) == _definitional_minimal_dominating(g)
        # gamma: the first dominating combination below a greedy cover's size,
        # else the cover itself
        greedy = irredundance._greedy_dominating(g)
        first = _first_combination(g, range(greedy.bit_count()), lambda s: is_dominating(g, s))
        gamma_set = greedy if first is None else first
        assert gamma_number(g) == (gamma_set.bit_count(), gamma_set)
        if g.n == 0:
            continue
        ir_set = _first_combination(g, range(1, g.n + 1), lambda s: is_maximal_irredundant(g, s))
        assert ir_number(g) == (ir_set.bit_count(), ir_set)
    null = complete(0)
    assert list(maximal_irredundant_sets(null)) == []
    assert list(minimal_dominating_sets(null)) == [0]
    with pytest.raises(ParameterError):
        ir_number(null)
    assert gamma_number(null) == (0, 0)


def test_enumerators_call_no_set_predicate(monkeypatch):
    # the walk tests each extension with masks; a per-subset scan would
    # call these predicates more than 2^16 times
    calls = []
    for name in ("is_maximal_irredundant", "is_irredundant", "is_dominating"):
        def counted(*args, _fn=getattr(irredundance, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(irredundance, name, counted)
    g = random_graph(random.Random(16), 16, 0.4)
    mir = list(maximal_irredundant_sets(g))
    mds = list(minimal_dominating_sets(g))
    assert mir and mds
    assert calls == []


def _assert_kernel_matches_per_bit(g, depth=None):
    """The table kernel and the per-bit reference build the same layers and
    frontiers with the same polls, up to ``depth`` or the last layer."""
    fast_token, slow_token = Polls(), Polls()
    fast, slow = irredundance._Walk(g, fast_token), irredundance._Walk(g, slow_token)
    while depth is None or len(fast.layers) <= depth:
        grown = fast.grow(fast_token)
        assert grown == per_bit_grow(slow, slow_token)
        assert (fast.layers, fast.frontier) == (slow.layers, slow.frontier)
        assert fast_token.polls == slow_token.polls
        if not grown:
            break


def test_walk_kernel_matches_the_per_bit_walk(connected_le6, bipartite_le7):
    # n > 20 puts vertices past both half tables, on the per-bit tail
    for g in (*connected_le6, *bipartite_le7, *_all_graphs_up_to_4()):
        _assert_kernel_matches_per_bit(g)
    rng = random.Random(29)
    for n in range(8, 27):
        for p in (0.15, 0.3, 0.5, 0.8):
            _assert_kernel_matches_per_bit(random_connected(rng, n, p), depth=3)
    _assert_kernel_matches_per_bit(cycle(24), depth=3)
    _assert_kernel_matches_per_bit(path(24), depth=3)


def test_walk_tables_stay_small(monkeypatch):
    # halves of 20 vertices each would build 4 * 2^20 entries, for a walk
    # that ends at its first layer
    walks = spy_walks(monkeypatch)
    assert ir_number(complete(40)) == (1, 1)
    assert len(walks) == 1 and walks[0].split == 10
    for table in (*walks[0].union, *walks[0].inter):
        assert len(table) <= 1024


def test_ir_and_gamma_closed_forms_on_paths_and_cycles():
    """ir = gamma = ceil(n/3) on P_n and C_n.  gamma is textbook (Haynes,
    Hedetniemi and Slater, Fundamentals of Domination in Graphs, 1998);
    ir >= n / (2 Delta - 1) = n/3 (Bollobas and Cockayne, 1979) and ir <= gamma."""
    for n in range(3, 22):
        for g in (path(n), cycle(n)):
            scope = budget.Scope()  # both read one walk
            assert ir_number(g, scope)[0] == gamma_number(g, scope)[0] == -(-n // 3)


def _assert_cancelled_quickly(run):
    t0 = time.monotonic()
    with pytest.raises(SearchCancelled):
        run(Deadline(0.05))
    assert time.monotonic() - t0 < 0.5


def test_enumerators_poll_the_budget():
    # a full walk of C24 takes seconds: about 10^4 maximal irredundant sets
    # among some 4 * 10^5 irredundant ones
    c24 = cycle(24)
    for enumerate_sets in (maximal_irredundant_sets, minimal_dominating_sets):
        _assert_cancelled_quickly(lambda token: list(enumerate_sets(c24, token=token)))
        sets = enumerate_sets(c24, token=Deadline(-1))
        with pytest.raises(SearchCancelled):
            next(sets)


def test_rainbow_invariants_pass_their_budget_to_the_enumerators(monkeypatch):
    # chi(C24) is quick; the candidates up to the greedy size 8 take seconds
    c24 = cycle(24)
    for solve in (gamma_chromatic_number, irredundance_chromatic_number):
        _assert_cancelled_quickly(lambda token: solve(c24, token))
    # Z(3,2) reads its candidates of three vertices, one layer past its
    # greedy dominating size 2, and a budget that runs out inside that layer
    # cancels the solve
    z = gen_family_z(3, 2).graph
    grow = irredundance._Walk.grow
    for solve in (gamma_chromatic_number, irredundance_chromatic_number):
        token = Polls()
        starts = []

        def spied(walk, tok, stop=None):
            starts.append((len(walk.layers), token.polls))
            return grow(walk, tok, stop)

        monkeypatch.setattr(irredundance._Walk, "grow", spied)
        solve(z, token)
        # the layer of two vertices is read in two steps, up to its first
        # candidate and then on; that of three at once, to its end
        assert starts == [(1, 1), (2, 15), (2, 57), (3, 93)]
        start = starts[-1][1]
        token = Polls(start + 2)  # expires on the layer's second set
        with pytest.raises(SearchCancelled):
            solve(z, token)
        assert token.polls == start + 2


def test_unscoped_gamma_walks_only_below_the_greedy_size():
    # gamma(C16) = 6 = g0, so gamma_number returns the greedy set after the
    # layers of at most five vertices, and polls once per set in them
    g = cycle(16)
    g0 = irredundance._greedy_dominating(g).bit_count()
    token = Polls()
    assert gamma_number(g, token) == (g0, irredundance._greedy_dominating(g)) and g0 == 6
    assert token.polls == sum(walk_nodes(g, g0 - 1)) == 3861
    # on the null graph g0 = 0, and no walk starts
    token = Polls()
    assert gamma_number(complete(0), token) == (0, 0) and token.polls == 0


def test_ir_and_gamma_poll_the_budget_inside_a_size():
    # ir(C24) = gamma(C24) = 8: a search that polled once per set size would
    # poll at most 8 times and return
    c24 = cycle(24)
    for solve in (ir_number, gamma_number):
        token = Polls(50)
        with pytest.raises(SearchCancelled):
            solve(c24, token)
        assert token.polls == 50


def test_readers_in_every_order_match_the_whole_layer_walk(connected_le6, bipartite_le7):
    # ir and gamma build the layer they stop in by buckets of lowest
    # vertex, the rainbow solvers in mask order; whichever comes first, the
    # others read what it built and the enumerators complete it
    rng = random.Random("reader-orders")
    graphs = [g for g in (*connected_le6, *bipartite_le7) if g.n]
    graphs += [relabeled(g, rng) for g in rainbow_gnp_graphs() for _ in range(3)]
    graphs += [path(n) for n in range(1, 17)] + [cycle(n) for n in range(3, 17)]
    graphs += [random_connected(rng, n, p) for p in (0.15, 0.3, 0.5, 0.8) for n in range(5, 15)]
    for g in graphs:
        assert_reader_orders(g)


@pytest.mark.parametrize("which", ["ir(C16)", "gamma(G(13, 0.4))"])
def test_a_budget_inside_the_partial_layer_leaves_a_walk_that_reads_on(monkeypatch, which):
    # ir(C16) = 6 = gamma(C16): the layers of at most five vertices hold
    # 3,861 sets, the empty one included, and ir builds its layer in mask
    # order up to a maximal set with vertex 0, then the rest of vertex 0's
    # bucket.  The rainbow_gnp graph has gamma = 3 and builds its buckets
    # of vertex 0 to 3 in one call each
    if which == "ir(C16)":
        g, solve, calls = cycle(16), ir_number, [(False, 3861), (True, 3892)]
    else:
        g, solve, calls = rainbow_gnp_graphs()[4], gamma_number, [(False, 88), (True, 135), (True, 167),
                                                                    (True, 193), (True, 218)]
    whole = list(reference_layers(g))
    want = reference_ir(whole) if solve is ir_number else reference_gamma(whole, irredundance._greedy_dominating(g))
    counted = Polls()
    starts = []
    build = irredundance._Walk._build

    def spied(walk, part, stop, tok, keep=False):
        if len(walk.layers) == want[0]:
            starts.append((keep, counted.polls))
        return build(walk, part, stop, tok, keep)

    monkeypatch.setattr(irredundance._Walk, "_build", spied)
    assert solve(g, budget.scope(counted)) == want
    monkeypatch.undo()
    assert starts == calls
    # one limit expires inside the mask-order prefix, one inside a bucket
    for limit in (calls[0][1] + 3, calls[1][1] + 2):
        token = Polls(limit)
        scope = budget.scope(token)
        with pytest.raises(SearchCancelled):
            solve(g, scope)
        assert token.polls == limit
        token.limit = None
        assert solve(g, scope) == want
        assert token.polls == counted.polls + 1  # only the set the budget stopped is built again
        walk = scope.memo[("walk", g)]
        assert walk.layers == whole[:len(walk.layers)]
        assert list(maximal_irredundant_sets(g, scope)) == sorted(s for maximal, _ in whole for s in maximal)
        assert walk.layers == whole
