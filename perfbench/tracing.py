"""In-memory span tracer that wraps shmseq's public entry points from outside.

Nothing under ``src/`` changes. While a traced phase runs, every entry point
in ``LAYERS`` is replaced, in each shmseq module that holds it, by a wrapper
that records one span per call: name, start, end, parent span, thread id,
run id, wall time and ``time.thread_time()`` CPU time, plus the layer's own
work counts. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

BATCH = ("batch_known", "batch_defaults")
STREAM = ("stream_adaptive",)
ALL = BATCH + STREAM


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


@dataclass(frozen=True)
class Layer:
    """One traced entry point, the end-to-end metrics it should move and where it runs.

    ``workloads`` lists the workloads that call it; on every other workload a
    traced run must report zero calls.
    """

    name: str
    module: str
    qualname: str
    moves: tuple[str, ...]
    workloads: tuple[str, ...]
    count: Callable | None = None  # (args, kwargs, result) -> {count_name: number}
    counts: tuple[str, ...] = ()  # summed per iteration
    derived: tuple[str, ...] = ()  # computed from the spans, see layer_metrics


LAYERS = (
    Layer("shearsim.simulate", "shmseq.shearsim", "simulate", ("gen_s",), ALL,
          lambda a, k, r: {"samples": r.signals.size}, ("samples",)),
    Layer("shearsim.to_csv", "shmseq.shearsim", "SimulationResult.to_csv",
          ("gen_s", "peak_rss_mb"), BATCH,
          lambda a, k, r: {"mb": _file_mb(a[1])}, ("mb",)),
    Layer("pipeline.read_signal_csv", "shmseq.pipeline", "read_signal_csv",
          ("run_s", "peak_rss_mb"), BATCH,
          lambda a, k, r: {"mb": _file_mb(a[0])}, ("mb",)),
    Layer("features.select_order", "shmseq.features", "select_order", ("run_s",),
          ("batch_defaults",), lambda a, k, r: {"fits": len(a[0]) * a[1]}, ("fits",)),
    Layer("features.extract_dsf_stream", "shmseq.features", "extract_dsf_stream",
          ("run_s", "stream.step_us_p50"), ALL,
          lambda a, k, r: {"chunks": len(r)}, ("chunks",)),
    Layer("detector.update", "shmseq.detector", "update", ("run_s",), ("batch_known",),
          derived=("step_us_p50",)),
    Layer("estimator.fit_predamage", "shmseq.estimator", "fit_predamage", ("run_s",), ALL),
    Layer("estimator.AdaptiveDetector.update", "shmseq.estimator", "AdaptiveDetector.update",
          ("run_s", "stream.step_us_p99", "stream.step_us_p50"), ("batch_defaults",) + STREAM,
          lambda a, k, r: {"rows_scored": a[0].step if a[0].is_ready else 0,
                           "step": a[0].step, "detector": id(a[0])},
          ("rows_scored",), ("step_us_first_decile", "step_us_last_decile")),
    Layer("localization.build_report", "shmseq.localization", "build_report", ("run_s",), BATCH),
    Layer("pipeline.run", "shmseq.pipeline", "run", ("run_s",), BATCH,
          lambda a, k, r: {"sensor_errors": sum("error" in s for s in r.summary["sensors"])},
          ("sensor_errors",), ("self_s",)),
    Layer("pipeline.report", "shmseq.pipeline", "report", (), BATCH),
)

# Extra per-layer metrics that do not come from a single wrapped entry point.
RUN_METRICS = (
    ("stream.step_us_p50", "us"),
    ("stream.step_us_p99", "us"),
    ("stream.steps", "count"),
    ("trace.overhead_run_s", "s"),
    ("trace.overhead_step_us_p50", "us"),
    ("quality.false_alarm_sensors", "count"),
    ("quality.detected_sensors", "count"),
    ("quality.detect_delay_chunks", "chunks"),
    ("host.probe_us", "us"),
    ("host.run_wall_s", "s"),
)

_UNITS = {"calls": "count", "wall_s": "s", "cpu_s": "s", "wait_s": "s", "samples": "count",
          "mb": "MB", "fits": "count", "chunks": "count", "step_us_p50": "us",
          "rows_scored": "count", "step_us_first_decile": "us", "step_us_last_decile": "us",
          "self_s": "s", "sensor_errors": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        for key in ("calls", "wall_s", "cpu_s", "wait_s") + layer.counts + layer.derived:
            units[f"{layer.name}.{key}"] = _UNITS[key]
    units.update(RUN_METRICS)
    return units


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    thread: int
    run: str
    start: float
    end: float
    cpu: float
    counts: dict = field(default_factory=dict)
    error: str | None = None
    cpu_start: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread.

    A worker thread's outermost span hangs off the span the main thread has
    open at that moment, which is ``pipeline.run`` while its pool works.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._lock = threading.Lock()
        self._last_id = 0
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            self._last_id += 1
            span = Span(self._last_id, name, parent, threading.get_ident(), self.run_id,
                        0.0, 0.0, 0.0)
        stack.append(span.span_id)
        span.cpu_start = time.thread_time()
        span.start = time.perf_counter()
        return span, stack

    def _close(self, span: Span, stack: list[int]) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu_start
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span, stack = self._open(name)
        try:
            yield span
        finally:
            self._close(span, stack)

    def wrap(self, name: str, fn, count=None):
        """``fn`` with one span per call; ``count`` adds work counts from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span, stack)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "name", "parent", "thread", "run", "start", "end",
                          "wall_s", "cpu_s", "counts", "error"])
            for s in sorted(self.spans, key=lambda s: s.span_id):
                out.writerow([s.span_id, s.name, s.parent, s.thread, s.run, repr(s.start),
                              repr(s.end), repr(s.wall), repr(s.cpu),
                              json.dumps(s.counts, sort_keys=True), s.error or ""])


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every entry point in LAYERS by its traced wrapper; restore on exit.

    A function is replaced in each loaded shmseq module that holds it, since
    ``pipeline`` and the package re-export names imported from their modules.
    A method is replaced on its class.
    """
    patches = []
    try:
        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            *path, attr = layer.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(layer.name, original, layer.count)
            if path:
                holders = [(owner, attr)]
            else:
                holders = [
                    (mod, key)
                    for name, mod in list(sys.modules.items())
                    if name == "shmseq" or name.startswith("shmseq.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                patches.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _median_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(spans: list[Span], iterations: int) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of ``iterations`` traced iterations.

    ``calls``, ``wall_s``, ``cpu_s``, ``wait_s`` (wall minus CPU) and the
    layer's counts are summed over the spans and divided by the number of
    iterations. Wall time is summed per call, so calls that overlap in pool
    threads each count in full; ``wait_s`` is then the time they spent
    waiting, mostly for the interpreter lock.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = by_name.get(layer.name, [])
        wall = sum(s.wall for s in own)
        cpu = sum(s.cpu for s in own)
        out[f"{layer.name}.calls"] = len(own) / iterations
        out[f"{layer.name}.wall_s"] = wall / iterations
        out[f"{layer.name}.cpu_s"] = cpu / iterations
        out[f"{layer.name}.wait_s"] = (wall - cpu) / iterations
        for key in layer.counts:
            out[f"{layer.name}.{key}"] = sum(s.counts.get(key, 0) for s in own) / iterations
        if "step_us_p50" in layer.derived:
            out[f"{layer.name}.step_us_p50"] = _median_us([s.wall for s in own])
        if "self_s" in layer.derived:
            self_s = sum(
                s.wall - _covered(s.start, s.end, [(c.start, c.end) for c in children[s.span_id]])
                for s in own
            )
            out[f"{layer.name}.self_s"] = self_s / iterations
        if "step_us_first_decile" in layer.derived:
            first, last = _decile_steps(own)
            out[f"{layer.name}.step_us_first_decile"] = _median_us(first)
            out[f"{layer.name}.step_us_last_decile"] = _median_us(last)
    return out


def _decile_steps(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Step wall times from the first and the last tenth of each detector's stream."""
    streams: dict[tuple, list[Span]] = defaultdict(list)
    for s in spans:
        if s.counts:
            streams[(s.run, s.counts["detector"])].append(s)
    first, last = [], []
    for steps in streams.values():
        n = max(s.counts["step"] for s in steps)
        tenth = max(1, n // 10)
        first += [s.wall for s in steps if s.counts["step"] <= tenth]
        last += [s.wall for s in steps if s.counts["step"] > n - tenth]
    return first, last
