"""irrcolor benchmark: four fixed graph workloads, end-to-end metrics, and a
per-layer trace taken from outside the program.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload rainbow_gnp --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload scan_n7 --trace 1
    python3 perfbench/run.py --workload differential_n7 --write-golden
    python3 -m pytest perfbench/tests -q

Workloads (inputs are written as graph6 by the harness; see inputs.py):

  rainbow_gnp          CLI ``invariants`` (default six) on 15 connected
                       G(n, 0.4) graphs, three for each n = 12..16
  committee_bipartite  library ``irc_chromatic_number`` then
                       ``irc_colorability`` on 15 connected bipartite graphs
                       with minimum degree >= 2, eight at n = 11, seven at 12
  scan_n7              CLI ``scan chain``, ``scan bounds`` and ``scan
                       conjecture`` over the 853 connected 7-vertex graphs of
                       networkx's atlas, then ``verify all``
  differential_n7      library ``oracle.cross_check`` on the same 853 graphs

The base graphs are fixed.  Pass k of a run relabels every input graph's
vertices with a permutation drawn from ``--seed`` and k, so every pass
meets the same graphs in a new vertex order; the search costs move with
that order, and a run that met one order per seed would time the seed.
Relabelling changes no answer, so the golden file
``perfbench/golden/<workload>.json`` applies to every pass of every seed.

A run makes one warm-up pass (pass 0), then timed passes for ``--seconds``
(at least four), and checks the outputs of every pass.  A pass is cut into
units of a few milliseconds to a second or two (one CLI call per graph for
rainbow_gnp, per 107 graphs and mode for scan_n7, one library call per
graph for committee_bipartite, per 20 graphs for differential_n7), and a
fixed probe of the harness's own code runs after each unit.  On a shared
VM the CPU speed this process gets swings by a third or more for seconds
at a time; every time below is a wall time rescaled by the adjacent probes
to a fixed reference speed (see speed.py), which removes most of that
swing.  The raw wall times are printed as well.  With ``--trace 0`` the
last line of standard output is a JSON object whose metrics are:

  pass_s         mean over the timed passes of the pass time: the sum of
                 its units' times, probes left out.  The passes meet
                 different vertex orders, and a mean averages over them
                 better than a median of four or five: over ten seeds on
                 committee_bipartite it spread by 0.10 where the median
                 spread by 0.15 (s)
  graph_p50_ms   median over the graphs of each graph's median solve time
                 across the timed passes (so across vertex orders); CLI
                 workloads sum the report's ``timings`` cells, library
                 workloads time each call (ms)
  graph_tail_ms  a tail percentile of the same per-graph times: p98 for the
                 853-graph workloads, the highest with at least ten graphs
                 beyond it; p90 for the 15-graph workloads, where no
                 percentile above p33 has ten graphs beyond it (ms)
  setup_s        median time from starting a fresh interpreter to ``import
                 irrcolor.cli`` returning, over four starts after each
                 timed pass, each scaled by a probe run in the child (s)
  peak_rss_mb    peak resident memory of the benchmark process (MB)
  ok_frac        share of attempted items that passed every check: 1 minus
                 the failed share printed above the JSON line (fraction)

An item is a graph (plus, for scan_n7, the run as a whole: exit codes,
graph6 echoes and ``verify all``).  It fails if its call raises, a cell is
``skipped(budget)``, cross_check disagrees, or its answer differs from the
golden answer; a golden ``skipped(cap)`` cell that is now ``ok`` is
accepted.  ``attempted`` and ``failed`` count items over every pass,
warm-up included.

With ``--trace 1`` the untraced passes are followed by two traced passes
(see tracer.py), whose call and yield counters must repeat exactly.  The
metrics are per-layer self times (``<layer>.self_s``), selected function
self times, call and yield counts, the yield ratios, the mean traced
pass, and ``trace_overhead_s``, the mean traced minus the mean untraced
pass.  Times are at reference speed.  Both traced passes rerun
pass 0, whose answers they must repeat.  The spans of the last traced pass
are written to ``.perfbench-work/``.

Each run also prints an answer digest: a SHA-256 over the full non-timing
output of pass 0 (graph6 echoes and witnesses included), so that two
commits can be compared on any seed.

``perfbench/baseline.json`` records the seed baseline of every end-to-end
metric, the layer shares of a traced pass, the traced counters, and which
per-layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden"
DEFAULT_SEED = 0
MIN_PASSES = 4
SETUP_STARTS = 4  # interpreter starts after each timed pass


def import_program():
    """Import irrcolor from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "irrcolor" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'irrcolor'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import irrcolor
    import irrcolor.cli

    if Path(irrcolor.__file__).resolve().parent != (SRC / "irrcolor").resolve():
        raise SystemExit(f"perfbench: imported irrcolor from {irrcolor.__file__}, not from {SRC}")


def measure_setup(starts: int) -> list[float]:
    """Times from spawning a fresh interpreter to its ``import irrcolor.cli``
    returning, at reference speed.  The child reads the system-wide
    monotonic clock right after the import, so its exit is not counted, and
    then runs the speed probe twice; the mean probe scales the time."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import irrcolor.cli; t = time.monotonic(); "
            "import speed; p = speed.SpeedProbe(); print(t, (p.measure() + p.measure()) / 2)")
    argv = [sys.executable, "-c", code, str(SRC), str(HERE)]
    times = []
    for _ in range(starts):
        t0 = time.monotonic()
        child = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
        t1, probe = map(float, child.stdout.split())
        times.append((t1 - t0) * PROBE_REF_S / probe)
    return times


def digest(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Runner:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, workload, golden: list):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}  # pass number -> answer digests seen

    def run_pass(self, k: int):
        """Pass ``k``, on its own relabelling of the inputs (see Workload.relabel)."""
        self.workload.relabel(k)
        try:
            result = self.workload.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += len(self.golden)
            self.failed += len(self.golden)
            return None
        flags = self.workload.failures(result, self.golden)
        self.attempted += len(flags)
        self.failed += sum(flags)
        self.digests.setdefault(k, set()).add(digest(result.content))
        # keep only the timings, so memory does not grow with the pass count
        result.answers = result.content = None
        return result

    def timed_passes(self, seconds: float, between=None) -> list:
        """Passes 1, 2, ... until ``seconds`` would be exceeded, but at least
        MIN_PASSES.  ``between`` runs after each pass, outside its timing."""
        results = []
        t0 = time.perf_counter()
        while True:
            result = self.run_pass(len(results) + 1)
            if result is None:
                break
            results.append(result)
            if between is not None:
                between()
            elapsed = time.perf_counter() - t0
            if len(results) >= MIN_PASSES and elapsed + elapsed / len(results) > seconds:
                break
        return results

    def deterministic(self) -> bool:
        """Whether every pass run more than once gave the same answers each time."""
        return all(len(d) == 1 for d in self.digests.values())


def graph_ms(results: list) -> list[float]:
    """Each graph's median solve time over the timed passes, that is, over
    as many vertex orders; graphs whose call raised in every pass are left
    out."""
    per_graph = ([t for t in ts if t is not None] for ts in zip(*(r.graph_ms for r in results)))
    return [statistics.median(ts) for ts in per_graph if ts]


def end_to_end(workload, results: list, runner: Runner, setup: list[float]) -> dict:
    per_graph = graph_ms(results)
    return {
        "pass_s": statistics.mean(r.seconds for r in results),
        "graph_p50_ms": statistics.median(per_graph),
        "graph_tail_ms": percentile(per_graph, workload.tail_pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - runner.failed / runner.attempted,
    }


def per_layer(runner: Runner, untraced_s: float, stem: Path) -> tuple[dict, bool]:
    """Two traced passes; returns the metrics and whether the counters
    repeated.  Times are of the last traced pass, at reference speed."""
    from tracer import Tracer

    tracer = Tracer()
    traced, counts = [], []
    with tracer:
        for _ in range(2):
            tracer.reset()
            result = runner.run_pass(0)  # the warm-up's inputs, so its answers must recur
            if result is None:
                return {}, False
            traced.append(result)
            counts.append(tracer.counts())
    s = tracer.summary()
    tracer.write(stem)
    scale = result.seconds / result.wall
    for name in s:
        if name.endswith(".self_s"):
            s[name] *= scale
    s["irredundance.mir_yield_ratio"] = s["irredundance.maximal_irredundant_sets.yielded"] / max(
        1, s["irredundance.is_maximal_irredundant.calls"])
    s["irredundance.mds_yield_ratio"] = s["irredundance.minimal_dominating_sets.yielded"] / max(
        1, s["irredundance.is_dominating.calls"])
    traced_s = statistics.mean(r.seconds for r in traced)
    s["traced_pass_s"] = traced_s
    s["trace_overhead_s"] = traced_s - untraced_s
    s["trace_unattributed_s"] = (result.wall - s["root_span_s"]) * scale
    return s, counts[0] == counts[1]


def load_golden(name: str):
    path = GOLDEN / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: missing golden answers {path}; create them with --write-golden")
    return json.loads(path.read_text(encoding="ascii"))["answers"]


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the input relabelling")
    parser.add_argument("--seconds", type=float, default=25, help="seconds of timed passes (at least four passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced passes")
    parser.add_argument("--write-golden", action="store_true",
                        help="run one pass and write its answers as the golden answers")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR, SRC)
    if args.write_golden:
        GOLDEN.mkdir(exist_ok=True)
        result = workload.run_pass()
        answers = result.answers
        # the checks that need no golden file still apply
        if any(workload.failures(result, answers)):
            raise SystemExit("perfbench: the program's answers fail their own checks; golden answers not written")
        path = GOLDEN / f"{args.workload}.json"
        with open(path, "w", encoding="ascii") as fh:
            fh.write('{"seed": %d, "answers": [\n' % args.seed)
            fh.write(",\n".join(json.dumps(a, sort_keys=True) for a in answers))
            fh.write("\n]}\n")
        print(f"perfbench: wrote {len(answers)} golden answers to {path}")
        return 0

    runner = Runner(workload, load_golden(args.workload))
    setup: list[float] = []
    measure_setup(1)  # settles the bytecode cache
    runner.run_pass(0)  # warm-up
    if args.trace:
        results = runner.timed_passes(args.seconds)
    else:
        # set-up samples spread over the run, like the passes
        results = runner.timed_passes(args.seconds, lambda: setup.extend(measure_setup(SETUP_STARTS)))
    correct = bool(results)
    computed = {}
    if results and args.trace:
        stem = WORKDIR / f"spans-{args.workload}-seed{args.seed}"
        computed, repeated = per_layer(runner, statistics.mean(r.seconds for r in results), stem)
        if not repeated:
            print("perfbench: call or yield counters differ between the two traced passes")
        correct = correct and repeated
    elif results:
        computed = end_to_end(workload, results, runner, setup)
    correct = correct and runner.failed == 0 and runner.deterministic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    wanted = spec["per_layer" if args.trace else "end_to_end"] if computed else []
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    for d in sorted(runner.digests.get(0, ())):
        print(f"perfbench: answer digest {args.workload} seed={args.seed} pass=0 sha256={d}")
    print(f"perfbench: {runner.failed} of {runner.attempted} items failed"
          f" (failed_frac {runner.failed / max(1, runner.attempted):.6f}), {len(results)} timed passes")
    if results:
        print("perfbench: raw wall seconds of the timed passes, probes left out: "
              + " ".join(f"{r.wall:.4f}" for r in results))
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, digests={k: sorted(v) for k, v in runner.digests.items()},
                        pass_s=[r.seconds for r in results], pass_wall_s=[r.wall for r in results],
                        setup_s=setup, graph_ms=[r.graph_ms for r in results])) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
