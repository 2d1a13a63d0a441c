"""In-memory spans recorded by the benchmark around calls into cpscores.

A span has a name ``<module>.<function>`` (or ``cli.<subcommand>`` for the
parent span of one subcommand), a start and end from
``time.perf_counter``, the index of its parent span and the id of the
iteration it belongs to.  Spans are kept in a list and written out once,
when the run ends.

Counts attached to spans (bytes, cells, result bytes) are *computed* from
file sizes and array shapes, so they repeat exactly; times and tracemalloc
peaks are *measured*.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# Modules whose spans the benchmark records; the share of each is its self
# time over the traced iteration time.  ``linalg`` and ``containers`` have
# no entry point the workloads call, so their cost sits inside these.
MODULES = ("cli", "io", "simulate", "model", "scores", "determinacy", "regression")


class Tracer:
    """Records the spans of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.iteration = 0
        self.probe = False  # True while an iteration measures memory peaks
        self._stack: list[int] = []
        self.missing: set[str] = set()  # traced names the package lacks

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = {
            "name": name,
            "iteration": self.iteration,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, peak: bool = False, counts=None,
             **kwargs):
        """Call ``fn`` under a span.  With ``peak`` and during a probe
        iteration, record the tracemalloc peak above the level at entry;
        ``counts(args, result)`` returns computed counts for the span, taken
        after the span has ended."""
        measure = peak and self.probe
        with self.span(name) as rec:
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            if measure:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if counts is not None:
            rec.update(counts(args, result))
        return result

    @contextmanager
    def patched(self, module, attr: str, name: str, peak: bool = False,
                counts=None):
        """Route calls the package makes through ``module.attr`` via a span.

        ``peak`` and ``counts`` are as for :meth:`call`; the original is
        restored when the context exits.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, peak=peak, counts=counts,
                             **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    @contextmanager
    def iteration_span(self, iteration: int, probe: bool = False):
        """Root span of one traced iteration; a probe iteration runs with
        tracemalloc on and is excluded from the timing figures."""
        self.iteration = iteration
        self.probe = probe
        if probe:
            tracemalloc.start()
        try:
            with self.span("iteration", probe=probe):
                yield
        finally:
            if probe:
                tracemalloc.stop()
            self.probe = False

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _duration(rec):
    return rec["end"] - rec["start"]


def summarize(spans: list[dict]) -> dict:
    """Per-iteration sums over the non-probe iterations.

    ``per_iter`` maps each key to one value per iteration.  Keys are
    ``<span>.s`` (time in spans of that name), ``cli.<sub>.self_s`` (minus
    direct ``io`` children), ``<module>.self_s`` (self time of the module's
    spans; ``iteration.self_s`` is the benchmark's own glue), and computed
    counts ``<span>.<count>``.  ``peaks`` maps a span name to
    ``(peak_bytes, result_bytes)`` of its call with the largest result in
    the probe iteration.
    """
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(i)

    probe_iters = {r["iteration"] for r in spans if r["name"] == "iteration" and r["probe"]}
    per_iter: dict[int, dict[str, float]] = {}
    peaks: dict[str, tuple[int, int]] = {}
    for i, rec in enumerate(spans):
        it = rec["iteration"]
        name = rec["name"]
        kids = [spans[k] for k in children.get(i, [])]
        dur = _duration(rec)
        self_s = dur - sum(_duration(k) for k in kids)
        if it in probe_iters:
            if "peak_bytes" in rec and "result_bytes" in rec:
                best = peaks.get(name)
                if best is None or rec["result_bytes"] > best[1]:
                    peaks[name] = (rec["peak_bytes"], rec["result_bytes"])
            continue
        acc = per_iter.setdefault(it, {})
        acc[f"{name}.s"] = acc.get(f"{name}.s", 0.0) + dur
        if name.startswith("cli."):
            io_s = sum(_duration(k) for k in kids if k["name"].startswith("io."))
            acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + dur - io_s
        module = name.split(".", 1)[0]
        acc[f"{module}.self_s"] = acc.get(f"{module}.self_s", 0.0) + self_s
        for key in ("bytes_read", "bytes_written", "cells_parsed", "result_bytes"):
            if key in rec:
                acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + rec[key]
    iters = sorted(per_iter)
    keys = sorted({k for acc in per_iter.values() for k in acc})
    return {
        "iterations": len(iters),
        "per_iter": {k: [per_iter[it].get(k, 0.0) for it in iters] for k in keys},
        "peaks": peaks,
    }


def median_of(summary: dict, key: str) -> float:
    values = summary["per_iter"].get(key)
    return statistics.median(values) if values else 0.0
