"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ASSET = HERE.parent.parent / "src" / "irrcolor" / "data" / "connected_le6.g6"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


@pytest.fixture
def fakepkg():
    """A package ``fakepkg`` with layers ``low`` and ``high``; ``high``
    imports ``leaf`` from ``low`` by name, as the program's modules do."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    low.tick = high.tick = clock.tick
    exec(
        "def leaf(t):\n    tick(t)\n"
        "def pair(ts):\n    for t in ts:\n        tick(t)\n        yield t\n",
        low.__dict__,
    )
    high.leaf = low.leaf
    high.pair = low.pair
    exec(
        "def mid():\n    tick(1)\n    leaf(2)\n    tick(1)\n"
        "def top():\n    tick(1)\n    mid()\n    leaf(3)\n",
        high.__dict__,
    )
    high.TABLE = {"mid": high.mid}
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.low", "fakepkg.high")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high})
    yield clock, low, high
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k, None)
        else:
            sys.modules[k] = v


def test_self_times_on_a_synthetic_tree():
    # root 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
    fids = [0, 1, 2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(fids, parents, starts, ends, 4) == [3.0, 2.0, 1.0, 4.0]
    # two spans of one name add up
    assert tracer.self_times([0, 1, 1], [-1, 0, 0], [0.0, 1.0, 3.0], [6.0, 2.0, 5.0], 2) == [3.0, 3.0]


def test_traced_nested_calls_across_modules(fakepkg):
    clock, low, high = fakepkg
    t = tracer.Tracer(package="fakepkg", layers=("low", "high"), clock=clock)
    with t:
        assert high.leaf is low.leaf and hasattr(low.leaf, "__wrapped__")  # rebound where imported
        high.top()
        high.TABLE["mid"]()
    s = t.summary()
    assert s["high.top.calls"] == 1 and s["high.mid.calls"] == 2 and s["low.leaf.calls"] == 3
    assert s["high.top.self_s"] == 1
    assert s["high.mid.self_s"] == 4  # 2 per call, leaf excluded
    assert s["low.leaf.self_s"] == 7
    assert s["low.self_s"] + s["high.self_s"] == s["root_span_s"] == 12
    assert high.leaf is low.leaf and not hasattr(high.TABLE["mid"], "__wrapped__")


def test_generator_read_in_part_then_resumed(fakepkg):
    clock, low, _ = fakepkg
    t = tracer.Tracer(package="fakepkg", layers=("low",), clock=clock)
    with t:
        it = low.pair([1, 2, 4])
        assert next(it) == 1
        assert next(it) == 2
        clock.tick(100)  # the consumer's own work between reads
        assert list(it) == [4]
    s = t.summary()
    assert s["low.pair.calls"] == 1 and s["low.pair.yielded"] == 3
    assert s["spans"] == 4  # three yields and the final StopIteration
    assert s["low.pair.self_s"] == 7
    assert list(t.parents) == [-1, -1, -1, -1]


def test_counts_repeat_on_the_program():
    from irrcolor import graphs, oracle

    g = graphs.parse_graph6(inputs.encode_graph6(*inputs.random_connected(random.Random(1), 6, 0.5)))
    t = tracer.Tracer()
    counts = []
    with t:
        for _ in range(2):
            t.reset()
            assert oracle.cross_check(g).ok
            counts.append(t.counts())
    assert counts[0] == counts[1]
    assert counts[0]["oracle.independent_partitions.yielded"] > 0
    assert counts[0]["irredundance.is_maximal_irredundant.calls"] > 0
    assert not hasattr(oracle.cross_check, "__wrapped__")


def _degree_sequence(line):
    n, edges = inputs.decode_graph6(line)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return sorted(degree)


class FixedProbe:
    """A speed probe that reads the given times in turn, then the last forever."""

    def __init__(self, times):
        self.times = list(times)
        self.last = self.measure()

    def measure(self):
        return self.times.pop(0) if len(self.times) > 1 else self.times[0]

    restart = speed.SpeedProbe.restart
    factor = speed.SpeedProbe.factor


def _chunk_bytes(workload):
    return [path.read_bytes() for _, _, path in workload.chunks]


@pytest.mark.parametrize("cls", [workloads.RainbowGnp, workloads.CommitteeBipartite])
def test_seed_reproduces_graph6_bytes(tmp_path, cls):
    probe = FixedProbe([0.01])
    runs = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / sub).mkdir()
        runs.append(cls(seed, tmp_path / sub, None, probe))
    a, b, c = runs
    assert len(a.lines) == 15 and len(a.chunks) == 15
    first = _chunk_bytes(a)
    assert first == _chunk_bytes(b)
    assert first != _chunk_bytes(c)
    a.relabel(1)  # the next pass meets another relabelling
    assert _chunk_bytes(a) != first
    a.relabel(0)
    assert _chunk_bytes(a) == first
    # every relabelling keeps the base graphs
    assert [_degree_sequence(x) for x in a.lines] == [_degree_sequence(x) for x in c.lines]


def test_pass_timer_scales_each_unit_by_its_probes(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: now[0])

    def unit(seconds):
        now[0] += seconds
        return seconds

    # probes: init, restart, then one after each unit
    ref = speed.PROBE_REF_S
    timer = workloads.PassTimer(FixedProbe([ref, ref, ref, 2 * ref]))
    assert timer.time(lambda: unit(1.0)) == 1.0
    assert timer.factor == 1.0
    timer.time(lambda: unit(3.0))  # probes ref before, 2 ref after: 1.5 times slower
    assert timer.factor == pytest.approx(2 / 3)
    assert timer.wall == 4.0
    assert timer.seconds == pytest.approx(1.0 + 2.0)


def test_graph6_codec_round_trip():
    from irrcolor import graphs

    rng = random.Random(7)
    for n in range(1, 14):
        g = inputs.random_connected(rng, n, 0.4)
        line = inputs.encode_graph6(*g)
        assert inputs.decode_graph6(line) == g
        assert graphs.to_graph6(graphs.from_edge_list(*g)).decode() == line


def test_atlas_has_853_connected_7_vertex_graphs():
    graphs7 = inputs.connected_atlas(ASSET)
    assert len(graphs7) == 853
    assert len({inputs.canonical_form(g) for g in graphs7}) == 853


def test_golden_comparison_accepts_a_raised_cap():
    golden = {"chi": ["ok", 4], "irc_colorable": ["skipped(cap)", None]}
    assert workloads.cells_match(golden, {"chi": ["ok", 4], "irc_colorable": ["ok", False]})
    assert not workloads.cells_match(golden, {"chi": ["ok", 4], "irc_colorable": ["skipped(budget)", None]})
    assert not workloads.cells_match(golden, {"chi": ["ok", 5], "irc_colorable": ["ok", False]})
    assert not workloads.cells_match({"chi": ["ok", 4]}, {"chi": ["skipped(cap)", None]})
    assert not workloads.cells_match(golden, {"chi": ["ok", 4]})
    want = {"id": 0, "n": 13, "m": 30, "cells": golden, "exit_code": 0, "echo_ok": True}
    got = dict(want, cells={"chi": ["ok", 4], "irc_colorable": ["ok", True]})
    assert workloads.RainbowGnp.item_ok(None, 0, want, got)
    assert not workloads.RainbowGnp.item_ok(None, 0, want, dict(got, echo_ok=False))


def test_committee_check_is_independent_of_the_program():
    c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
    assert workloads.committee_safe(4, c4, [0, 1, 0, 1])
    assert not workloads.committee_safe(4, c4, [0, 0, 1, 1])  # improper
    assert not workloads.committee_safe(3, ((0, 1), (1, 2)), [0, 1, 0])  # pn[0, {0, 1}] is empty
