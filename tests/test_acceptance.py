"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from importlib.resources import as_file, files

from irrcolor import families as F
from irrcolor.cli import main
from irrcolor.coloring import chromatic_number, irredundance_chromatic_number
from irrcolor.graphs import from_edge_list, parse_graph6, to_graph6
from irrcolor.irc import irc_chromatic_number, irc_colorability, is_irc_coloring
from irrcolor.irredundance import ir_number, is_maximal_irredundant, maximal_irredundant_sets
from irrcolor.oracle import cross_check, oracle_invariant

from conftest import complete, complete_bipartite, cycle, random_connected, tree7


def _asset_path(name):
    return as_file(files("irrcolor").joinpath(f"data/{name}"))


def _report(criterion, started, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({time.time() - started:.1f}s) {detail}")


def test_c1_fixed_values():
    started = time.time()
    assert irredundance_chromatic_number(tree7())[0] == 3
    for n in range(1, 7):
        assert irredundance_chromatic_number(complete(n))[0] == n
    for n in range(2, 8):
        star = from_edge_list(n, [(0, i) for i in range(1, n)])
        assert irredundance_chromatic_number(star)[0] == 2
    for m in range(2, 5):
        for n in range(2, 5):
            assert irredundance_chromatic_number(complete_bipartite(m, n))[0] == 2
    assert irredundance_chromatic_number(F.gen_family_b(6, 4).graph)[0] == 4
    res = irc_chromatic_number(cycle(4))
    assert res is not None and res[0] == 2
    for t in range(1, 5):
        assert irc_colorability(cycle(2 * t + 1)) is None
    for n in range(1, 7):
        assert irc_colorability(complete(n)) is None
    _report("C1", started, "named fixture values all match")


def test_c2_family_constructions():
    started = time.time()
    for n, k in ((6, 3), (8, 3), (8, 4)):
        g = F.gen_family_a(n, k).graph
        assert chromatic_number(g)[0] == k
        assert ir_number(g)[0] == k
        assert irredundance_chromatic_number(g)[0] == k
        assert oracle_invariant(g, "chi").value == k
        assert oracle_invariant(g, "ir").value == k
        assert oracle_invariant(g, "chi_i").value == k
    inst = F.gen_family_z(3, 2)
    g = inst.graph
    assert g.n == 14
    assert chromatic_number(g)[0] == 3
    witness = (1 << inst.label_index("v1")) | (1 << inst.label_index("v2"))
    assert ir_number(g)[0] == 2 and is_maximal_irredundant(g, witness)
    assert irredundance_chromatic_number(g)[0] == 4
    vs = {i: inst.label_index(f"v{i}") for i in (1, 2)}
    pend = {
        i: sum(1 << inst.label_index(f"p{i}.{j}") for j in range(1, 4)) for i in (1, 2)
    }
    for s in maximal_irredundant_sets(g):
        for i in (1, 2):
            assert (s >> vs[i] & 1) or (s & pend[i]) == pend[i]
    _report("C2", started, "corona family and merged-block family verified")


def test_c3_committee_constructions(connected_le6):
    started = time.time()
    for inst, classes in (
        (F.gen_cut_vertex(3), 3),
        (F.gen_bridge(3, 3), 4),
        (F.gen_tilde(3), 3),
        (F.gen_star_of_cycles(4), 4),
        (F.fixture("epn_sample"), 3),
    ):
        assert inst.coloring.k == classes
        assert is_irc_coloring(inst.graph, inst.coloring).is_irc
        claim = inst.claims.get("chi_irc")
        if claim is not None:
            # a committee-safe coloring with k classes certifies max >= k,
            # which is the certifiable direction of every claim here
            assert classes >= claim.value
    # exact maxima are reproduced on every graph small enough to exhaust
    for g in connected_le6:
        res = irc_chromatic_number(g)
        assert (res[0] if res else None) == oracle_invariant(g, "chi_irc").value
    _report("C3", started, "attached colorings certify the claimed bounds")


def test_c4_oracle_equivalence(connected_le6):
    started = time.time()
    assert len(connected_le6) == 143
    assert sum(1 for g in connected_le6 if g.n == 6) == 112
    for g in connected_le6:
        report = cross_check(g)
        assert report.ok, (to_graph6(g), report.disagreements())
    rng = random.Random(20260810)
    for _ in range(200):
        g = random_connected(rng, 7, p=0.35)
        report = cross_check(g)
        assert report.ok, (to_graph6(g), report.disagreements())
    _report("C4", started, "zero fast/oracle disagreements on 343 graphs")


def test_c5_inequality_suites(capsys):
    started = time.time()
    with _asset_path("connected_le6.g6") as path:
        assert main(["scan", "chain", str(path)]) == 0
        assert main(["scan", "bounds", str(path)]) == 0
    capsys.readouterr()
    _report("C5", started, "chain, bounds, domination/irredundance checks clean")


def test_c6_characterization_scan(capsys):
    started = time.time()
    with _asset_path("bipartite_connected_le7.g6") as path:
        code = main(["scan", "characterization", str(path)])
    capsys.readouterr()
    assert code == 0
    _report("C6", started, "three-way equivalence agreed on every bipartite input")


def test_c7_conjecture_scan(capsys):
    started = time.time()
    with _asset_path("connected_le6.g6") as path:
        code = main(["scan", "conjecture", str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    _report("C7", started, "every committee-colorable graph has a chi-color committee coloring")


def test_c8_codec_roundtrip():
    started = time.time()
    for n in range(0, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for picks in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])
            assert parse_graph6(to_graph6(g)) == g
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(6, 20)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
        ]
        g = from_edge_list(n, edges)
        assert parse_graph6(to_graph6(g)) == g
    _report("C8", started, "graph6 round-trip exact on exhaustive and random graphs")
