"""Rescaling of wall time to a fixed reference CPU speed.

On a shared VM the CPU speed this process gets changes for seconds at a
time: a fixed loop of Python code that takes 0.10 s for a while takes
0.15 s for the next while, with no steal time reported, presumably as other
tenants load the shared cores and caches.  Raw pass times of one workload
on one seed then spread by 20-30% between runs.

The probe is a fixed piece of the harness's own pure-Python graph code
(canonical forms of fixed 7-vertex graphs, see inputs.py), run right after
each unit of measured work.  Its time tracks the speed the program's code
gets at that moment.  Over 25 s windows of repeated differential_n7 passes
on a 2-vCPU VM, raw times spread by 0.17 (quartile distance over median)
where times divided by the adjacent probe spread by 0.02; for
committee_bipartite passes, 0.19 and 0.04.  A plain integer loop as the
probe did worse (0.05 on differential_n7), and a memory-bound loop barely
helped (0.14).  The probe is not program code, so a change to the program
leaves it alone.

A unit's time at reference speed is its wall time times
``PROBE_REF_S / probe``, where ``probe`` is the mean of the probes before
and after the unit: the seconds the unit would have taken at the speed at
which the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import random
import time

import inputs

PROBE_REF_S = 0.010  # near the probe's median on the 2-vCPU VM the benchmark was tuned on
PROBE_GRAPHS = 18


class SpeedProbe:
    """Times the fixed probe kernel and turns wall time into seconds at
    reference speed."""

    def __init__(self):
        rng = random.Random("perfbench:probe")
        self.graphs = [inputs.random_connected(rng, 7, 0.4) for _ in range(PROBE_GRAPHS)]
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        for g in self.graphs:
            inputs.canonical_form(g)
        return time.perf_counter() - t0

    def restart(self) -> None:
        """Probe now, so the next unit is not paired with a stale probe."""
        self.last = self.measure()

    def factor(self) -> float:
        """Probe again; the scale factor for the work done since the last probe."""
        before, self.last = self.last, self.measure()
        return 2 * PROBE_REF_S / (before + self.last)
