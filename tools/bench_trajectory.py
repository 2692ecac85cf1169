#!/usr/bin/env python3
"""Append one benchmark run per workload to a BENCH_<tag>.json trajectory.

Runs ``perfbench/run.py --workload W --seed S --trace 0`` in a source
checkout for every workload that BENCHMARK.json declares, or for each
``--workload NAME`` given, one after the other, and appends each run's
final JSON line to ``BENCH_<tag>.json`` at the root of this repository,
with the checkout's commit, the seed and the answer digests the run
printed.  Each run lasts run.py's default time, so one file never mixes
runs of different lengths.  Run it once per checkout to put two commits
side by side in one file:

    python3 tools/bench_trajectory.py mytag --checkout ../parent-clone
    python3 tools/bench_trajectory.py mytag

Alternating the two on one workload appends pairs of runs:

    python3 tools/bench_trajectory.py mytag --workload committee_bipartite --seed 3

The checkout must be a git clone; its commit is read with ``git describe
--always --dirty``, so a run on uncommitted changes says so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "perfbench: answer digest "


def run_workload(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_trajectory: {workload} failed in {checkout}:\n{proc.stderr}")
    return {
        "workload": workload,
        "seed": seed,
        "result": json.loads(lines[-1]),
        "digests": [line[len(DIGEST):] for line in lines if line.startswith(DIGEST)],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag", help="names the output file BENCH_<tag>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="source checkout to measure")
    parser.add_argument("--seed", type=int, default=0)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help=f"one of {', '.join(names)}; repeatable (default: all)")
    args = parser.parse_args(argv)

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=args.checkout,
                            capture_output=True, text=True, check=True).stdout.strip()
    out = ROOT / f"BENCH_{args.tag}.json"
    bench = json.loads(out.read_text(encoding="ascii")) if out.exists() else {"tag": args.tag, "runs": []}
    for name in args.workload or names:
        run = dict(run_workload(args.checkout, name, args.seed), commit=commit,
                   host={"cpus": os.cpu_count(), "python": platform.python_version()})
        bench["runs"].append(run)
        out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="ascii")
        print(f"bench_trajectory: {commit} {name} seed={args.seed} -> {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
