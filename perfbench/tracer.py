"""Per-layer tracing of the program from outside, by rebinding its functions.

``Tracer.install`` wraps every public function defined in the traced modules
and rebinds the wrapper wherever the original is held: in every
``irrcolor`` module namespace (so calls between modules are caught) and in
module-level dicts such as dispatch tables.  ``uninstall`` puts the originals
back.

A wrapped function records one span per call: name, start, end and the span
that was open when it was called.  A generator function records one span per
``next()``, so only the time spent inside the generator is its own; the
consumer's work between two ``next()`` calls is not.  Hot predicates get
count-only wrappers, and the bit helpers ``bits`` and ``mask_from`` are left
alone: both sit in the innermost loops, so their time is their caller's.

Spans stay in flat arrays in memory until ``write`` puts them on disk.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("graphs", "irredundance", "coloring", "irc", "oracle", "characterize", "families", "cli")
COUNT_ONLY = frozenset({
    "irredundance.is_maximal_irredundant",
    "irredundance.is_irredundant",
    "irredundance.is_dominating",
    "irredundance.private_neighbors",
    "graphs.closed_neighborhood_of_set",
})
UNTRACED = frozenset({"graphs.bits", "graphs.mask_from"})


def self_times(fids, parents, starts, ends, n_names: int) -> list[float]:
    """Total self time per name id.

    A child span is always recorded after its parent, so one backward sweep
    sees every child before its parent.
    """
    child = [0.0] * len(fids)
    out = [0.0] * n_names
    for i in range(len(fids) - 1, -1, -1):
        d = ends[i] - starts[i]
        out[fids[i]] += d - child[i]
        p = parents[i]
        if p >= 0:
            child[p] += d
    return out


class Tracer:
    def __init__(self, package: str = "irrcolor", layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = layers
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore: list[tuple[dict, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.yielded.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, count_only: bool = False):
        """A traced stand-in for ``fn``; ``name`` is ``layer.function``."""
        fid = self._name_id(name)
        calls, yielded, clock = self.calls, self.yielded, self.clock
        fids, parents, starts, ends, stack = self.fids, self.parents, self.starts, self.ends, self._stack

        def enter() -> int:
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if count_only:
            def counted(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        elif inspect.isgeneratorfunction(fn):
            def resume(it):
                while True:
                    idx = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    yielded[fid] += 1
                    yield item

            def generator(*args, **kwargs):
                calls[fid] += 1
                return resume(fn(*args, **kwargs))
            wrapper = generator
        else:
            def spanned(*args, **kwargs):
                calls[fid] += 1
                idx = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)
            wrapper = spanned
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = self.wrap(obj, name, count_only=name in COUNT_ONLY)
        holders = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == self.package or mod_name.startswith(self.package + "."):
                namespace = vars(module)
                holders.append(namespace)
                holders.extend(v for v in namespace.values() if type(v) is dict)
        for holder in holders:
            for key, value in list(holder.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((holder, key, value))
                    holder[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            holder[key] = original
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results -------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; the wrappers stay installed."""
        for arr in (self.fids, self.parents, self.starts, self.ends):
            del arr[:]
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.yielded[i] = 0

    def counts(self) -> dict[str, int]:
        """Call and yield counters; deterministic for deterministic code."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.yielded"] = self.yielded[i]
        return out

    def summary(self) -> dict[str, float]:
        """Counters, per-function and per-layer self time, and the time
        covered by root spans."""
        own = self_times(self.fids, self.parents, self.starts, self.ends, len(self.names))
        out: dict[str, float] = dict(self.counts())
        for layer in self.layers:
            out[f"{layer}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = own[i]
            out[f"{name.split('.')[0]}.self_s"] += own[i]
        out["spans"] = len(self.fids)
        out["root_span_s"] = sum(
            self.ends[i] - self.starts[i] for i in range(len(self.fids)) if self.parents[i] < 0
        )
        return out

    def write(self, stem: Path) -> None:
        """``stem.json`` holds the name table and layout; ``stem.bin`` holds
        the spans as four consecutive native arrays: name id, parent index
        (-1 for a root), start and end in seconds."""
        header = {
            "names": self.names,
            "spans": len(self.fids),
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="ascii")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.fids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
