"""Spans and counters around the shrinkci layers, installed from outside.

The benchmark replaces module attributes of the package at run time with
wrappers that record a span (name, layer, start, end, parent) or bump a
counter, and restores them afterwards; nothing in the package changes.  An
attribute that no longer exists (after a refactor, say) is reported as absent
and skipped.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "pipeline", "moments", "worstcase", "momentlp", "nonlinear", "simulation")

# The benchmark's own time: whatever part of a pass no layer span covers.
BENCH_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> dict[str, float]:
    """Exclusive time per layer.

    A span's self time is its duration minus the durations of its direct
    children, which are sequential because the benchmark is single-threaded.
    Summing per layer charges a nested same-layer span once, and charges a
    child from another layer to that other layer.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - inner
    return out


# ---------------------------------------------------------------------------
# hooks: turn a call's arguments and result into counts


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _cli_io(counts, args, kwargs, result, failed):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    for flag, key in (("--input", "cli.bytes_read"), ("--het-input", "cli.bytes_read"),
                      ("--config", "cli.bytes_read"), ("--output", "cli.bytes_written")):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                counts[key] += os.path.getsize(path)


def _fit_units(counts, args, kwargs, result, failed):
    counts["pipeline.units"] += len(_arg(args, kwargs, 0, "data"))
    if result is not None:
        counts["pipeline.error_rows"] += sum(
            getattr(o, "error", None) is not None for o in getattr(result, "outputs", ())
        )


def _count(key):
    def hook(counts, args, kwargs, result, failed):
        counts[key] += 1
    return hook


def _study_reps(counts, args, kwargs, result, failed):
    designs = _arg(args, kwargs, 0, "designs")
    counts["simulation.reps"] += int(_arg(args, kwargs, 2, "reps", 1000)) * len(designs)


def _cva_keys_batch(counts, args, kwargs, result, failed):
    counts["worstcase.cva_keys"] += _size(_arg(args, kwargs, 0, "m2"))


def _elements(key):
    def hook(counts, args, kwargs, result, failed):
        counts[key] += _size(args[0]) if args else 1
    return hook


def _lp_solve(counts, args, kwargs, result, failed):
    counts["momentlp.lp_solves"] += 1
    counts["momentlp.lp_failures"] += int(failed)


@dataclass(frozen=True)
class Point:
    layer: str
    attr: str
    hook: Callable | None = None
    # count only, for hot kernels: add the elements of the first two
    # arguments (broadcast against each other) to this counter, record no span
    elements: str | None = None


POINTS = (
    Point("cli", "main", _cli_io),
    Point("pipeline", "fit", _fit_units),
    Point("moments", "estimate_moments", _count("moments.calls")),
    Point("simulation", "run_study", _study_reps),
    Point("worstcase", "critical_values", _cva_keys_batch),
    Point("worstcase", "critical_value", _count("worstcase.cva_keys")),
    # pipeline calls this directly for the worst-case distortion column,
    # which would otherwise be charged to pipeline
    Point("worstcase", "_worst_noncoverage_batch"),
    # simulation calls these directly for the least favorable designs
    Point("worstcase", "_cva_scalar"),
    Point("worstcase", "majorant_kink"),
    Point("momentlp", "solve_moment_lp", _lp_solve),
    Point("momentlp", "calibrate_chi", _count("momentlp.calibrations")),
    Point("nonlinear", "soft_threshold_ebci"),
    Point("nonlinear", "soft_threshold_worst_noncoverage"),
    Point("nonlinear", "poisson_ebci"),
    Point("nonlinear", "selection_second_moment"),
    Point("nonlinear", "selection_critical_value"),
    # the reward kernels run once per LP solve, inside momentlp.calibrate_chi;
    # spans keep their time out of momentlp's self time
    Point("nonlinear", "soft_threshold_noncoverage", _elements("nonlinear.reward_points")),
    Point("nonlinear", "poisson_noncoverage", _elements("nonlinear.reward_points")),
    Point("nonlinear", "selection_noncoverage", _elements("nonlinear.reward_points")),
    # hot kernels, called ~1e5 times a pass: counted, no span
    Point("worstcase", "noncoverage_sq", elements="worstcase.kernel_evals"),
    Point("worstcase", "noncoverage_sq_d1", elements="worstcase.kernel_evals"),
    Point("worstcase", "noncoverage_sq_d2", elements="worstcase.kernel_evals"),
)


class Tracer:
    """Installs the wrappers for one traced pass and collects what they record."""

    def __init__(self, package: str = "shrinkci", points=POINTS):
        self.package = package
        self.points = points
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts.clear()  # cleared in place: the kernel wrappers hold it
        self._stack = []

    def install(self):
        self.absent = []
        for p in self.points:
            label = f"{p.layer}.{p.attr}"
            try:
                module = importlib.import_module(f"{self.package}.{p.layer}")
            except ImportError:
                self.absent.append(label)
                continue
            fn = getattr(module, p.attr, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            self._saved.append((module, p.attr, fn))
            wrapped = self._counter(p, fn) if p.elements else self._span(p, fn)
            setattr(module, p.attr, wrapped)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _run_hook(self, p: Point, args, kwargs, result, failed):
        if p.hook is None:
            return
        try:
            p.hook(self.counts, args, kwargs, result, failed)
        except Exception:  # a hook that no longer fits the API must not end the run
            self.hook_errors[f"{p.layer}.{p.attr}"] += 1
            if self.hook_errors[f"{p.layer}.{p.attr}"] == 1:
                traceback.print_exc(file=sys.stderr)

    def _span(self, p: Point, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(p.attr, p.layer, clock(), 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span.end = clock()
                self._stack.pop()
                self._run_hook(p, args, kwargs, result, failed)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, p: Point, fn):
        counts, key = self.counts, p.elements

        def wrapper(*args, **kwargs):
            if len(args) >= 2:
                counts[key] += max(getattr(args[0], "size", 1), getattr(args[1], "size", 1))
            else:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for one traced pass of ``wall_s`` seconds."""
        selfs = self_times(self.spans)
        out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in (*LAYERS, *selfs)}
        out[f"{BENCH_LAYER}.self_s"] = wall_s - sum(selfs.values())
        out.update(self.counts)
        return out
