"""The four benchmark workloads, their passes and their correctness checks.

A pass calls the program through its public entry points, ``cli.main(argv)``
or the library solvers, and returns per-graph times, one answer per checked
item, and the full non-timing content for the answer digest.  An answer is
label-free: it never contains a graph6 echo or a witness, so the same golden
answers hold for every relabelling of the inputs.  The echoes are checked
against the inputs instead, and committee witnesses are checked by the
harness's own exhaustive committee test.

A pass is cut into units (one CLI call on a chunk of the inputs, or the
library calls on one graph or a few), and the speed probe (speed.py) runs
after each unit.  Times are reported at reference speed: each unit's wall
time, and the per-graph times inside it, are scaled by the probe factor of
that unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import inputs
from speed import SpeedProbe


@dataclass
class PassResult:
    seconds: float  # at reference speed
    wall: float  # raw wall seconds of the units, probes left out
    graph_ms: list  # per input graph at reference speed, None where the call raised
    answers: list
    content: object
    errors: list[int] = field(default_factory=list)  # items whose call raised


class PassTimer:
    """Times the units of one pass, probing the CPU speed after each."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.seconds = self.wall = 0.0
        self.factor = 1.0
        probe.restart()

    def time(self, unit):
        """Run ``unit()``, add its time, and return its result; ``factor``
        then scales times measured inside it."""
        t0 = time.perf_counter()
        out = unit()
        wall = time.perf_counter() - t0
        self.factor = self.probe.factor()
        self.wall += wall
        self.seconds += wall * self.factor
        return out

    def result(self, graph_ms, answers, content, errors=()) -> PassResult:
        return PassResult(self.seconds, self.wall, graph_ms, answers, content, list(errors))


def _cli(argv: list[str]) -> tuple[int, dict]:
    """Run ``irrcolor.cli.main(argv)``; return its exit code and JSON report."""
    from irrcolor import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _no_timings(report: dict) -> dict:
    out = dict(report)
    if "graphs" in out:
        out["graphs"] = [{k: v for k, v in r.items() if k != "timings"} for r in out["graphs"]]
    return out


def _cells(record: dict) -> dict:
    """A report record's invariant cells as ``name -> [status, value]``."""
    return {k: [c["status"], c["value"]] for k, c in record["invariants"].items()}


def cells_match(golden: dict, now: dict) -> bool:
    """Cell-by-cell equality, except that a golden ``skipped(cap)`` cell may
    now be ``ok`` with any value: raising a size cap is a legitimate change."""
    return golden.keys() == now.keys() and all(
        now[k] == want or (want[0] == "skipped(cap)" and now[k][0] == "ok")
        for k, want in golden.items()
    )


CELL_KEYS = ("cells", "chain", "bounds", "conjecture")


def answer_matches(golden: dict, now: dict) -> bool:
    """Equal answers, comparing the cell maps under ``cells_match``."""
    return golden.keys() == now.keys() and all(
        cells_match(want, now[k]) if k in CELL_KEYS else now[k] == want
        for k, want in golden.items()
    )


def _graph_answers(report: dict, lines: list[str], first: int) -> tuple[list[dict], bool]:
    """Per-graph answers of a CLI report on ``lines``, numbered from
    ``first``, and whether every graph6 echo matches its input."""
    records = report["graphs"]
    echo_ok = [r.get("graph6") for r in records] == lines and report["summary"]["graphs"] == len(lines)
    answers = [{"id": first + r["id"], "n": r["n"], "m": r["m"], "cells": _cells(r)} for r in records]
    return answers, echo_ok


class Workload:
    """One workload: its seeded inputs, one pass over them, and the check of
    each item against the golden answers."""

    name = ""
    tail_pct = 50  # percentile of the per-graph times reported as graph_tail_ms
    chunk = 1  # graphs per unit of a pass

    def __init__(self, seed: int, workdir: Path, src: Path, probe: SpeedProbe | None = None):
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.probe = probe or SpeedProbe()
        self.base = self.base_graphs()
        self.relabel(0)

    def relabel(self, k: int) -> None:
        """Make the inputs of pass ``k``: the base graphs under vertex
        permutations drawn from the seed and ``k``.  The solvers' cost moves
        with the vertex order (one committee search takes 1.0 s under one
        order and 2.2 s under another), so each pass meets a new order."""
        graphs = inputs.seeded_relabel(self.base, f"{self.name}:{self.seed}:{k}")
        self.lines = [inputs.encode_graph6(*g) for g in graphs]
        self.chunks = []  # (index of the first graph, its lines, the file holding them)
        for first in range(0, len(self.lines), self.chunk):
            lines = self.lines[first:first + self.chunk]
            path = self.workdir / f"{self.name}-{first}.g6"
            path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
            self.chunks.append((first, lines, path))

    def base_graphs(self) -> list[inputs.Graph]:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def failures(self, result: PassResult, golden: list) -> list[bool]:
        """One flag per item: True when the item failed.  ``golden`` has
        one answer per graph, then any whole-run items."""
        if len(golden) != len(result.answers):
            return [True] * max(len(golden), len(result.answers))
        errors = set(result.errors)
        return [i in errors or not self.item_ok(i, want, got)
                for i, (want, got) in enumerate(zip(golden, result.answers))]

    def item_ok(self, i: int, want, got) -> bool:
        return want == got


class RainbowGnp(Workload):
    """CLI ``invariants`` with the default six on connected G(n, 0.4),
    n = 12..16: the two 2^n set enumerators carry the load."""

    name = "rainbow_gnp"
    tail_pct = 90
    per_n = 3

    def base_graphs(self):
        rng = random.Random(f"{self.name}:base")
        return [inputs.random_connected(rng, n, 0.4) for n in range(12, 17) for _ in range(self.per_n)]

    def run_pass(self):
        timer = PassTimer(self.probe)
        graph_ms, answers, content = [], [], []
        for first, lines, path in self.chunks:
            code, report = timer.time(lambda: _cli(["invariants", str(path), "--json"]))
            chunk_answers, echo_ok = _graph_answers(report, lines, first)
            answers += [dict(a, exit_code=code, echo_ok=echo_ok) for a in chunk_answers]
            graph_ms += [timer.factor * 1000 * sum(r["timings"].values()) for r in report["graphs"]]
            content.append(_no_timings(report))
        return timer.result(graph_ms, answers, content)

    def item_ok(self, i, want, got):
        if not answer_matches(want, got):
            return False
        # implications that hold for every graph, whatever the golden file says
        v = {k: value for k, (status, value) in got["cells"].items() if status == "ok"}
        chain = [v.get(k) for k in ("chi", "chi_i", "chi_gamma")]
        known = [x for x in chain if x is not None]
        if known != sorted(known):
            return False
        if {"chi", "ir", "chi_i"} <= v.keys() and not max(v["chi"], v["ir"]) <= v["chi_i"] <= v["chi"] + v["ir"] - 1:
            return False
        return not ({"ir", "gamma"} <= v.keys() and v["ir"] > v["gamma"])


def committee_safe(n: int, edges, color_of: list[int]) -> bool:
    """The harness's own check that a coloring is proper and that every
    rainbow committee (one vertex per class) is irredundant."""
    if len(color_of) != n or any(color_of[u] == color_of[v] for u, v in edges):
        return False
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    k = max(color_of) + 1
    classes = [[v for v in range(n) if color_of[v] == c] for c in range(k)]
    if not all(classes):
        return False
    for committee in product(*classes):
        for v in committee:
            others = 0
            for u in committee:
                if u != v:
                    others |= closed[u]
            if not closed[v] & ~others:
                return False
    return True


class CommitteeBipartite(Workload):
    """Library ``irc_chromatic_number`` then ``irc_colorability`` on bipartite
    graphs with minimum degree >= 2, n = 11..12.  The CLI caps ``chi_irc`` at
    n = 10 and would skip them; here the committee search carries the load."""

    name = "committee_bipartite"
    tail_pct = 90
    sizes = (11,) * 8 + (12,) * 7

    def base_graphs(self):
        rng = random.Random(f"{self.name}:base")
        return [inputs.random_bipartite(rng, n, 0.6) for n in self.sizes]

    def run_pass(self):
        from irrcolor import graphs, irc

        def solve(line):
            g = graphs.parse_graph6(line)
            t0 = time.perf_counter()
            best = irc.irc_chromatic_number(g)
            colorable = irc.irc_colorability(g)
            return time.perf_counter() - t0, best, colorable

        timer = PassTimer(self.probe)
        graph_ms, answers, witnesses, errors = [], [], [], []
        for i, line in enumerate(self.lines):
            try:
                seconds, best, colorable = timer.time(lambda: solve(line))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.probe.restart()
                errors.append(i)
                graph_ms.append(None)
                answers.append(None)
                witnesses.append(None)
                continue
            graph_ms.append(1000 * seconds * timer.factor)
            best_coloring = list(best[1].color_of) if best else None
            colorable_coloring = list(colorable.color_of) if colorable else None
            answers.append({"chi_irc": best[0] if best else None, "irc_colorable": colorable is not None})
            witnesses.append([best_coloring, colorable_coloring])
        for i, w in enumerate(witnesses):
            if w is not None:
                answers[i]["witnesses_ok"] = self._witnesses_ok(i, answers[i], w)
        return timer.result(graph_ms, answers, {"answers": answers, "witnesses": witnesses}, errors)

    def _witnesses_ok(self, i: int, answer: dict, witnesses: list) -> bool:
        n, edges = inputs.decode_graph6(self.lines[i])
        best, colorable = witnesses
        if (best is None) != (colorable is None) or (best is None) != (answer["chi_irc"] is None):
            return False
        if best is None:
            return True
        return (max(best) + 1 == answer["chi_irc"] and committee_safe(n, edges, best)
                and committee_safe(n, edges, colorable))


class ScanN7(Workload):
    """CLI ``scan chain``, ``scan bounds`` and ``scan conjecture`` over all 853
    connected 7-vertex graphs, then ``verify all``: thousands of tiny solves,
    so per-call overhead and orchestration show."""

    name = "scan_n7"
    tail_pct = 98
    chunk = 107  # eight CLI calls per mode, about 0.1 s each
    modes = ("chain", "bounds", "conjecture")

    def base_graphs(self):
        return inputs.connected_atlas(self.src / "irrcolor" / "data" / "connected_le6.g6")

    def run_pass(self):
        timer = PassTimer(self.probe)
        per_graph = [{"violations": []} for _ in self.lines]
        graph_ms = [0.0] * len(self.lines)
        exit_codes, echo_ok, content = [], True, []
        for mode in self.modes:
            codes = []
            for first, lines, path in self.chunks:
                code, report = timer.time(lambda: _cli(["scan", mode, str(path), "--json"]))
                codes.append(code)
                answers, chunk_echo_ok = _graph_answers(report, lines, first)
                echo_ok = echo_ok and chunk_echo_ok
                for answer, raw in zip(answers, report["graphs"]):
                    i = answer["id"]
                    per_graph[i].update({k: answer[k] for k in ("id", "n", "m")}, **{mode: answer["cells"]})
                    graph_ms[i] += timer.factor * 1000 * sum(raw["timings"].values())
                for v in report["violations"]:
                    per_graph[first + v["graph"]]["violations"].append(
                        {k: x for k, x in v.items() if k != "graph6"})
                content.append(_no_timings(report))
            exit_codes.append(max(codes))
        verify_code, verify = timer.time(lambda: _cli(["verify", "all", "--json"]))
        run = {
            "exit_codes": exit_codes + [verify_code],
            "echo_ok": echo_ok,
            "claims": verify["claims"],
            "verify_summary": verify["summary"],
        }
        return timer.result(graph_ms, per_graph + [run], {"scans": content, "verify": verify})

    def item_ok(self, i, want, got):
        if i == len(self.lines):  # the run as a whole: exit codes, echoes, verify all
            return want == got and all(c["status"] == "pass" for c in got["claims"])
        return answer_matches(want, got)


class DifferentialN7(Workload):
    """Library ``oracle.cross_check`` on each of the 853 connected 7-vertex
    graphs: the only workload where the exhaustive oracle carries the load."""

    name = "differential_n7"
    tail_pct = 98
    chunk = 20  # about 0.1 s of cross_check calls between probes

    def base_graphs(self):
        return inputs.connected_atlas(self.src / "irrcolor" / "data" / "connected_le6.g6")

    def run_pass(self):
        from irrcolor import graphs, oracle

        def check(first, lines):
            """Per-graph seconds and answers; None for both where the call raised."""
            out = []
            for i, line in enumerate(lines, first):
                try:
                    g = graphs.parse_graph6(line)
                    t0 = time.perf_counter()
                    report = oracle.cross_check(g)
                    out.append((time.perf_counter() - t0, [[e.invariant, e.fast, e.oracle] for e in report.entries]))
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    errors.append(i)
                    out.append((None, None))
            return out

        timer = PassTimer(self.probe)
        graph_ms, answers, errors = [], [], []
        for first, lines, _ in self.chunks:
            for seconds, answer in timer.time(lambda: check(first, lines)):
                graph_ms.append(None if seconds is None else 1000 * seconds * timer.factor)
                answers.append(answer)
        return timer.result(graph_ms, answers, answers, errors)

    def item_ok(self, i, want, got):
        return want == got and all(fast == slow for _, fast, slow in got)


WORKLOADS = {w.name: w for w in (RainbowGnp, CommitteeBipartite, ScanN7, DifferentialN7)}
