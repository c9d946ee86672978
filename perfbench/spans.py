"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions of the aqcsim modules at their module
attribute, so every call that goes through the attribute (which is how the
modules call each other) opens a span.  A span holds its name, start, end,
parent and, for a few functions, counts read from the return value.  A name
that is missing from its module is recorded as absent and its metrics read
0, so a later refactor does not break the benchmark.

Spans live in memory; the caller writes one JSON line per instance after
the timed work.  Instance boundaries are the calls to
`hamiltonians.pair_from_seed`, which every workload makes once per instance.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

INSTANCE_MARKER = "hamiltonians.pair_from_seed"


def _plan_cells(plan):
    return {"plan_cells": plan.cells}


def _ode_result(sol):
    return {"rhs_evals": sol.nfev}


def _target_result(res):
    return {"probes": len(res.probes)}


def _deltap_result(res):
    # every (instance, k) pair of a kept instance runs both controllers
    return {"probes": 2 * len(res.k_values) * res.count, "excluded": res.excluded}


def _scaling_result(summary):
    return {"excluded": sum(cell.excluded for cell in summary.cells)}


def _written(paths):
    return {"bytes_written": sum(os.path.getsize(p) for p in paths)}


# span name -> function reading counts from the return value (or None)
TARGETS = {
    "hamiltonians.pair_from_seed": None,
    "hamiltonians.spectrum_at": None,
    "spectral.solve_levels": None,
    "spectral.solve_ivp": _ode_result,
    "spectral.curvature_profile": None,
    "evolution.build_schedule": _plan_cells,
    "evolution.adiabatic_time": None,
    "evolution.min_gap": None,
    "experiments.time_to_target": _target_result,
    "experiments.scaling_study": _scaling_result,
    "experiments.delta_p_sweep": _deltap_result,
    "cli.emit_tables": _written,
}

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("hamiltonians.build_s", "s"),
    ("hamiltonians.diag_calls", "count"),
    ("hamiltonians.diag_s", "s"),
    ("spectral.solve_levels_s", "s"),
    ("spectral.rhs_evals", "count"),
    ("spectral.curvature_profile_s", "s"),
    ("spectral.fallback_instances", "count"),
    ("evolution.build_schedule_s", "s"),
    ("evolution.plan_cells", "count"),
    ("evolution.plan_diag_calls", "count"),
    ("evolution.adiabatic_time_s", "s"),
    ("evolution.min_gap_s", "s"),
    ("evolution.propagate_s", "s"),
    ("evolution.cell_steps", "count"),
    ("evolution.us_per_cell_step", "us"),
    ("experiments.probes", "count"),
    ("experiments.instance_s_p50", "s"),
    ("experiments.instance_s_p90", "s"),
    ("experiments.excluded", "count"),
    ("cli.emit_s", "s"),
    ("cli.bytes_written", "count"),
    ("trace.overhead_s", "s"),
    ("bench.raw_wall_s", "s"),
    ("bench.calibration_s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one process, in start order; parents are list indices."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, error: bool = False) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        self._open.pop()
        return span



def concat(span_lists) -> list[Span]:
    """Several recorders' spans as one list, parent indices shifted to match."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        out += [
            Span(s.name, s.start, s.end, None if s.parent is None else s.parent + base,
                 s.error, s.counts)
            for s in spans
        ]
    return out


def _wrap(recorder: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(index, error=True)
            raise
        span = recorder.end(index)
        if counter is not None:
            try:
                span.counts = counter(result)
            except (AttributeError, TypeError):
                span.counts = {}
        return result

    return wrapper


class Installed:
    """Context manager: wrappers in place on entry, originals back on exit."""

    def __init__(self, recorder: Recorder, package: str = "aqcsim"):
        self.recorder = recorder
        self.package = package
        self.absent: list[str] = []
        self._saved: list = []

    def __enter__(self):
        for name, counter in TARGETS.items():
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.recorder, name, fn, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = _children(spans)
    out = []
    for span, children in zip(spans, kids):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children
        ]
        out.append(span.seconds - _covered(clipped))
    return out


def _ancestor(spans: list[Span], index: int, name: str) -> int | None:
    """Index of the nearest enclosing span called name, else None."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    return _ancestor(spans, index, name) is not None


def _descends_from(spans: list[Span], index: int, root: int) -> bool:
    parent = spans[index].parent
    while parent is not None and parent != root:
        parent = spans[parent].parent
    return parent == root


def instance_windows(spans: list[Span]) -> list[tuple]:
    """(start, end, parent name) per instance, in order.

    An instance starts at an outermost instance-marker span and ends at the
    next one, or where the span that called the marker ends.
    """
    marks = [
        i for i, s in enumerate(spans)
        if s.name == INSTANCE_MARKER and not _has_ancestor(spans, i, INSTANCE_MARKER)
    ]
    windows = []
    for j, i in enumerate(marks):
        span = spans[i]
        parent = spans[span.parent] if span.parent is not None else None
        end = parent.end if parent is not None else math.inf
        if j + 1 < len(marks):
            end = min(end, spans[marks[j + 1]].start)
        windows.append((span.start, end, parent.name if parent else None))
    return windows


def instance_of(spans: list[Span], windows: list[tuple]) -> list[int | None]:
    """Index of the instance window that contains each span, else None."""
    out = []
    for span in spans:
        out.append(next(
            (w for w, (start, end, _) in enumerate(windows)
             if start <= span.start and span.end <= end),
            None,
        ))
    return out


def per_name(spans: list[Span], selfs: list[float], members) -> dict:
    """name -> calls, total seconds (outermost calls only) and self seconds."""
    out: dict = {}
    for i in members:
        span = spans[i]
        rec = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, span.name):
            rec["total_s"] += span.seconds
        for key, value in span.counts.items():
            rec[key] = rec.get(key, 0) + value
    return out


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics summed over every span recorded (one traced run).

    Times are inclusive (a layer's calls, children included) except
    evolution.propagate_s, the self time of the two ensemble loops that
    call the propagation kernel.
    """
    selfs = self_times(spans)
    stats = per_name(spans, selfs, range(len(spans)))

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    windows = instance_windows(spans)
    owner = instance_of(spans, windows)
    plans = [
        j for j, span in enumerate(spans)
        if span.name == "evolution.build_schedule" and "plan_cells" in span.counts
    ]

    def cells_for(i):
        # the plan of the sweep's own instance, or the plans built inside it
        found = [
            spans[j].counts["plan_cells"] for j in plans
            if (owner[i] is not None and owner[j] == owner[i])
            or _descends_from(spans, j, i)
        ]
        return float(np.mean(found)) if found else 0.0

    cell_steps = sum(
        round(span.counts.get("probes", 0) * cells_for(i))
        for i, span in enumerate(spans)
        if span.name in ("experiments.time_to_target", "experiments.delta_p_sweep")
    )
    propagate_s = (get("experiments.time_to_target", "self_s")
                   + get("experiments.delta_p_sweep", "self_s"))
    fallback = len({
        _ancestor(spans, j, "spectral.curvature_profile")
        for j, span in enumerate(spans)
        if span.name == "spectral.solve_levels" and span.error
    } - {None})
    experiment_instances = [
        end - start for start, end, parent in windows
        if parent in ("experiments.scaling_study", "experiments.delta_p_sweep")
    ]
    return {
        "hamiltonians.build_s": get(INSTANCE_MARKER, "total_s"),
        "hamiltonians.diag_calls": get("hamiltonians.spectrum_at", "calls"),
        "hamiltonians.diag_s": get("hamiltonians.spectrum_at", "total_s"),
        "spectral.solve_levels_s": get("spectral.solve_levels", "total_s"),
        "spectral.rhs_evals": get("spectral.solve_ivp", "rhs_evals"),
        "spectral.curvature_profile_s": get("spectral.curvature_profile", "total_s"),
        "spectral.fallback_instances": fallback,
        "evolution.build_schedule_s": get("evolution.build_schedule", "total_s"),
        "evolution.plan_cells": get("evolution.build_schedule", "plan_cells"),
        "evolution.plan_diag_calls": sum(
            1 for i, s in enumerate(spans)
            if s.name == "hamiltonians.spectrum_at"
            and _has_ancestor(spans, i, "evolution.build_schedule")
        ),
        "evolution.adiabatic_time_s": get("evolution.adiabatic_time", "total_s"),
        "evolution.min_gap_s": get("evolution.min_gap", "total_s"),
        "evolution.propagate_s": propagate_s,
        "evolution.cell_steps": cell_steps,
        "evolution.us_per_cell_step": 1e6 * propagate_s / cell_steps if cell_steps else 0.0,
        "experiments.probes": (get("experiments.time_to_target", "probes")
                               + get("experiments.delta_p_sweep", "probes")),
        "experiments.instance_s_p50": _percentile(experiment_instances, 50),
        "experiments.instance_s_p90": _percentile(experiment_instances, 90),
        "experiments.excluded": (get("experiments.scaling_study", "excluded")
                                 + get("experiments.delta_p_sweep", "excluded")),
        "cli.emit_s": get("cli.emit_tables", "total_s"),
        "cli.bytes_written": get("cli.emit_tables", "bytes_written"),
    }


def instance_lines(spans: list[Span], **labels) -> list[dict]:
    """One record per instance: its window and its spans summed by name."""
    selfs = self_times(spans)
    windows = instance_windows(spans)
    owner = instance_of(spans, windows)
    lines = []
    for w, (start, end, parent) in enumerate(windows):
        members = [i for i, o in enumerate(owner) if o == w]
        lines.append({
            **labels,
            "instance": w,
            "seconds": end - start if math.isfinite(end) else None,
            "caller": parent,
            "spans": per_name(spans, selfs, members),
        })
    return lines
