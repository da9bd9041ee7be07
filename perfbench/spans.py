"""Outside-in tracing: wrap the program's public entry points in timed spans.

``Tracer.install`` replaces each named function with a wrapper that records
a span (name, start, end, parent, thread CPU) and restores the originals on
``uninstall``.  Spans stay in per-thread lists in memory until collected, so
the wrappers share no mutable state across threads.  A span opened on a
thread with no open span of its own (a worker of the program's thread pool)
takes as parent the innermost span open on the main thread, which is the
call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Any, Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    cpu: float          # thread CPU seconds spent inside the span
    extra: Any          # per-layer counts, or process CPU for rfs spans


def process_cpu() -> float:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Tracer:
    """Create on the main thread, whose open spans parent pool threads' spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[Any, str, Any]] = []
        self._main_stack: list[int] = self._state()[0]

    def _state(self) -> tuple[list[int], list[Span]]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])
            with self._lock:
                self._buffers.append(state[1])
            self._local.state = state
            return state

    def wrap(self, name: str, fn: Callable, measure: Callable = None,
             proc_cpu: bool = False) -> Callable:
        """``fn`` timed as span ``name``.  ``measure(args, result)`` runs after
        the span closes and returns the span's counts."""
        tracer = self
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span_id = next(tracer._ids)  # one C call, atomic under the interpreter lock
            stack.append(span_id)
            p0 = process_cpu() if proc_cpu else 0.0
            # the CPU reading nests inside the wall one, so cpu <= wall
            t0 = perf_counter()
            c0 = thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1 = thread_time()
                t1 = perf_counter()
                stack.pop()
                if proc_cpu:
                    extra = process_cpu() - p0
                else:
                    extra = measure(args, result) if measure and result is not None else None
                spans.append(Span(span_id, parent, name, threading.get_ident(),
                                  t0, t1, c1 - c0, extra))

        return traced

    def install(self, targets) -> None:
        """Patch ``(owner, attribute, span name, measure, proc_cpu)`` targets.

        Missing owners and attributes are skipped.  Names bound to one
        function share one wrapper, so a call is recorded once whichever
        name it goes through.
        """
        wrappers = {}
        for owner, attribute, name, measure, proc_cpu in targets:
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, measure, proc_cpu)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrappers[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def collect(self) -> list[Span]:
        """All spans recorded since the last collect, in start order."""
        with self._lock:
            spans = [span for buffer in self._buffers for span in buffer]
            for buffer in self._buffers:
                buffer.clear()
        return sorted(spans, key=lambda span: span.start)


def gospa_targets(cut_ps: frozenset):
    """The program's layer entry points, as ``Tracer.install`` targets."""
    import gospa
    from gospa import assignment, cli, documents, metrics, rfs

    def solve_counts(args, result):
        costs = np.asarray(args[0])
        rows, cols = costs.shape
        top = costs.max()
        # a saturated entry is c**p, the largest cost a matrix can hold
        saturated = int(np.count_nonzero(costs == top)) if top in cut_ps else 0
        return rows * cols, min(rows, cols) <= 3, saturated

    def sample_counts(args, result):
        truth, estimate = result
        return len(truth) + len(estimate)

    targets = []
    for owner in (metrics, assignment, gospa):
        targets.append((owner, "solve_full_assignment", "assignment", solve_counts, False))
    targets.append((getattr(rfs, "IndependentPairSampler", None), "sample_pair", "rfs.sample",
                    sample_counts, False))
    for owner in (rfs, gospa):
        targets.append((owner, "estimate_metric", "rfs", None, True))
        targets.append((owner, "run_table1", "rfs", None, True))
    for owner in (metrics, gospa):
        targets.append((owner, "gospa", "metrics", None, False))
        targets.append((owner, "ospa", "metrics", None, False))
    targets.append((documents, "read_multi_bernoulli", "documents", None, False))
    targets.append((cli, "main", "cli", None, False))
    return targets


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans.

    busy_s sums span durations and wait_s sums duration minus thread CPU,
    counting only the outermost span of a layer; self_s is a span minus the
    union of its children's intervals, whatever thread they ran on.
    """
    names = {span.id: span.name for span in spans}
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    by_layer = defaultdict(list)
    for span in spans:
        if names.get(span.parent) != span.name:
            by_layer[span.name].append(span)

    def busy(name):
        return sum(s.end - s.start for s in by_layer[name])

    def wait(name):
        return sum(s.end - s.start - s.cpu for s in by_layer[name])

    def self_time(name):
        return sum(s.end - s.start - _covered(children[s.id], s.start, s.end)
                   for s in by_layer[name])

    solves = [s.extra for s in by_layer["assignment"] if s.extra is not None]
    cells = sum(extra[0] for extra in solves)
    samples = [s.extra for s in by_layer["rfs.sample"] if s.extra is not None]
    rfs_wall = busy("rfs")
    rfs_cpu = sum(s.extra for s in by_layer["rfs"])
    return {
        "assignment.calls": len(by_layer["assignment"]),
        "assignment.cells": cells,
        "assignment.small_share": (sum(extra[1] for extra in solves) / len(solves)
                                   if solves else 0.0),
        "assignment.saturated_share": (sum(extra[2] for extra in solves) / cells
                                       if cells else 0.0),
        "assignment.busy_s": busy("assignment"),
        "assignment.wait_s": wait("assignment"),
        "rfs.sample.calls": len(by_layer["rfs.sample"]),
        "rfs.sample.points": sum(samples),
        "rfs.sample.busy_s": busy("rfs.sample"),
        "rfs.sample.wait_s": wait("rfs.sample"),
        "rfs.self_s": self_time("rfs"),
        "rfs.utilization": rfs_cpu / (rfs_wall * workers) if rfs_wall else 0.0,
        "metrics.calls": len(by_layer["metrics"]),
        "metrics.busy_s": busy("metrics"),
        "metrics.self_s": self_time("metrics"),
        "documents.busy_s": busy("documents"),
        "cli.self_s": self_time("cli"),
    }


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON line per span, tagged with its traced pass."""
    with open(path, "w", encoding="utf-8") as out:
        for index, spans in enumerate(passes):
            for span in spans:
                record = span._asdict()
                record["pass"] = index
                out.write(json.dumps(record) + "\n")
