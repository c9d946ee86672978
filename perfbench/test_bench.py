"""Tests of the benchmark's own logic: span arithmetic and the reference check.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def record(plan):
    """Spans from a script of ("begin", name) / ("end",) / ("tick", dt) steps."""
    clock = FakeClock()
    rec = sp.Recorder(clock)
    stack = []
    for step in plan:
        if step[0] == "begin":
            stack.append(rec.begin(step[1]))
        elif step[0] == "end":
            rec.end(stack.pop())
        else:
            clock.now += step[1]
    return rec.spans


def test_self_time_subtracts_nested_children():
    spans = record([
        ("begin", "root"), ("tick", 1.0),
        ("begin", "a"), ("tick", 2.0),
        ("begin", "leaf"), ("tick", 3.0), ("end",),
        ("tick", 0.5), ("end",),
        ("begin", "b"), ("tick", 4.0), ("end",),
        ("tick", 0.25), ("end",),
    ])
    assert [s.name for s in spans] == ["root", "a", "leaf", "b"]
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert spans[0].seconds == pytest.approx(10.75)
    assert sp.self_times(spans) == pytest.approx([1.25, 2.5, 3.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [sp.Span("p", 0.0, 10.0), sp.Span("c1", 1.0, 5.0, parent=0),
             sp.Span("c2", 3.0, 7.0, parent=0), sp.Span("c3", 9.0, 12.0, parent=0)]
    # children cover [1, 7] and [9, 10] of the parent
    assert sp.self_times(spans)[0] == pytest.approx(3.0)


def test_recursive_calls_count_once_in_total_time():
    spans = record([
        ("begin", "f"), ("tick", 1.0), ("begin", "f"), ("tick", 2.0), ("end",),
        ("end",),
    ])
    stats = sp.per_name(spans, sp.self_times(spans), range(len(spans)))
    assert stats["f"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_instances_split_at_marker_and_end_with_their_caller():
    m = sp.INSTANCE_MARKER
    spans = record([
        ("begin", "experiments.scaling_study"),
        ("begin", m), ("tick", 1.0), ("end",), ("tick", 2.0),
        ("begin", m), ("tick", 1.0), ("end",),
        ("begin", "evolution.build_schedule"), ("tick", 3.0), ("end",),
        ("end",),
        ("begin", "cli.emit_tables"), ("tick", 1.0), ("end",),
    ])
    windows = sp.instance_windows(spans)
    assert [(w[0], w[1]) for w in windows] == [(0.0, 3.0), (3.0, 7.0)]
    assert sp.instance_of(spans, windows) == [None, 0, 1, 1, None]
    layers = sp.layer_metrics(spans)
    assert layers["experiments.instance_s_p50"] == pytest.approx(3.5)
    assert layers["cli.emit_s"] == pytest.approx(1.0)


def test_cell_steps_multiply_probes_by_the_instance_plan():
    spans = [
        sp.Span("experiments.scaling_study", 0.0, 10.0),
        sp.Span(sp.INSTANCE_MARKER, 0.0, 1.0, parent=0),
        sp.Span("evolution.build_schedule", 1.0, 2.0, parent=0, counts={"plan_cells": 100}),
        sp.Span("experiments.time_to_target", 2.0, 6.0, parent=0, counts={"probes": 7}),
        sp.Span("evolution.adiabatic_time", 2.0, 3.0, parent=3),
        sp.Span("experiments.time_to_target", 6.0, 9.0, parent=0, counts={"probes": 5}),
    ]
    layers = sp.layer_metrics(spans)
    assert layers["evolution.cell_steps"] == 1200
    assert layers["experiments.probes"] == 12
    assert layers["evolution.propagate_s"] == pytest.approx(6.0)
    assert layers["evolution.us_per_cell_step"] == pytest.approx(5000.0)


def test_missing_attribute_is_recorded_absent_not_fatal(monkeypatch):
    import types

    fake = types.ModuleType("fakepkg.hamiltonians")
    fake.spectrum_at = lambda pair, lam: lam * 2
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.hamiltonians", fake)
    rec = sp.Recorder()
    with sp.Installed(rec, package="fakepkg") as inst:
        assert fake.spectrum_at(None, 3.0) == 6.0
    assert "hamiltonians.pair_from_seed" in inst.absent
    assert "hamiltonians.spectrum_at" not in inst.absent
    assert [s.name for s in rec.spans] == ["hamiltonians.spectrum_at"]
    assert fake.spectrum_at(None, 1.0) == 2.0 and len(rec.spans) == 1


def test_failed_call_closes_its_span_with_error():
    rec = sp.Recorder()
    wrapped = sp._wrap(rec, "spectral.solve_levels", lambda: 1 / 0, None)
    with pytest.raises(ZeroDivisionError):
        wrapped()
    assert rec.spans[0].error and math.isfinite(rec.spans[0].end)


SCALING_REF = [
    [2.0, "linear", 1.5, 0.0, 1.0], [2.0, "feedback", 0.5, 0.0, 1.0],
    [3.0, "linear", float("nan"), float("nan"), 0.0], [3.0, "feedback", 2.0, 0.0, 1.0],
]


def test_scaling_check_accepts_T_within_rtol_and_flags_changed_exclusion():
    rows = [list(r) for r in SCALING_REF]
    rows[0][2] *= 1.0 + 0.9 * wl.T_RTOL
    assert wl.check_scaling(rows, SCALING_REF) == [True, True]
    rows[0][2] = 1.5 * (1.0 + 1.5 * wl.T_RTOL)
    assert wl.check_scaling(rows, SCALING_REF) == [False, True]
    rows = [list(r) for r in SCALING_REF]
    rows[2] = [3.0, "linear", 7.0, 0.0, 1.0]  # the excluded instance came back
    assert wl.check_scaling(rows, SCALING_REF) == [True, False]


def test_deltap_check_flags_a_perturbed_row_and_a_changed_exclusion():
    ref = [[0.1, 0.25, 0.0, 1.0], [0.3, -0.5, 0.0, 1.0]]
    rows = [list(r) for r in ref]
    rows[1][1] += 1e-10
    assert wl.check_deltap(rows, ref) == [True, True]
    rows[1][1] += 1e-8
    assert wl.check_deltap(rows, ref) == [True, False]
    rows = [[0.1, float("nan"), float("nan"), 0.0], list(ref[1])]
    assert wl.check_deltap(rows, ref) == [False, True]
    rows[0][1] = math.inf
    assert wl.check_deltap(rows, ref) == [False, True]


def test_committed_reference_flags_one_perturbed_row_of_a_real_entry():
    workload = wl.WORKLOADS["gain_sweep"]
    reference, costs = wl.load_reference(workload, wl.DEFAULT_POOL)
    assert len(reference) == workload.pool_sizes[wl.DEFAULT_POOL] == len(costs)
    ref = reference[wl.entry_seed(wl.DEFAULT_POOL, 0)]
    rows = [list(r) for r in ref]
    assert wl.check_deltap(rows, ref) == [True] * workload.operations
    rows[5][1] += 1e-8 * max(1.0, abs(rows[5][1]))
    rows[9][3] = 0.0  # the instance counted as excluded at one k
    verdicts = wl.check_deltap(rows, ref)
    assert [i for i, ok in enumerate(verdicts) if not ok] == [5, 9]


def test_profile_check_flags_one_perturbed_curvature_row():
    import numpy as np

    lams = np.linspace(1.0, 0.0, 64)
    c2 = -1.0 / (0.01 + (lams - 0.4) ** 2)
    rows = np.column_stack([lams, c2, 0.5 * c2]).tolist()
    ref = wl.WORKLOADS["profile_n5"].record(rows)
    assert wl.check_profile(rows, ref) == [True]
    rows[10][1] += 2e-6 * np.max(np.abs(c2))
    assert wl.check_profile(rows, ref) == [False]


def test_reference_csv_round_trip(tmp_path):
    path = tmp_path / "fig3_scaling.csv"
    path.write_text("n,controller,meanT,stdT,count\n2,linear,1.5,0.0,1\n3,linear,nan,nan,0\n")
    rows = wl.read_csv(str(path), wl.WORKLOADS["ttt_scaling"].header)
    assert rows[0] == [2.0, "linear", 1.5, 0.0, 1.0]
    assert math.isnan(rows[1][2])
    with pytest.raises(wl.CheckError):
        wl.read_csv(str(path), ("k", "mean_dP", "std_dP", "count"))


def test_wall_time_is_corrected_for_drift_and_for_the_entries_drawn(monkeypatch):
    import itertools

    import worker

    class Runner:
        """Every entry takes twice its seed-code time, on a host at half speed."""

        def run(self, seed):
            return 2.0 * costs[seed]

    costs = {1: 1.0, 2: 3.0, 3: 2.0}
    monkeypatch.setattr(worker, "calibrate", lambda: 2.0 * worker.CAL_NOMINAL_S)
    result = worker.measure(Runner(), itertools.cycle([1, 2]), 0.001, costs)
    # the median seed-code entry takes 2.0 s, and so does every corrected entry
    wall = result["wall_s"]
    assert wall["q1"] == pytest.approx(2.0) and wall["q3"] == pytest.approx(2.0)
    assert {e[1] for e in result["entries"]} <= {2.0, 6.0}
