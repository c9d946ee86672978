"""Ensemble machinery: seeding, target scans, scaling fits, gain sweeps."""

import os
import re
import threading
import tracemalloc
from collections import Counter
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqcsim import evolution as evo
from aqcsim import experiments as xp
from aqcsim import hamiltonians as ham
from aqcsim import spectral
from aqcsim.errors import FitUnderdeterminedError, SimulationError, UnreachableTargetError


def test_instance_seeds_are_deterministic_and_distinct():
    a = xp.instance_seed(7, 2, 0)
    assert a == xp.instance_seed(7, 2, 0)
    seen = {
        xp.instance_seed(m, n, i)
        for m in (7, 8)
        for n in (2, 3)
        for i in range(50)
    }
    assert len(seen) == 200  # no collisions across master/n/index
    assert all(0 <= s < 2**64 for s in seen)


def test_make_instance_round_trips_through_seed():
    seed = xp.instance_seed(7, 2, 3)
    pair = xp.make_instance(2, seed)
    again = ham.pair_from_seed(2, seed)
    np.testing.assert_array_equal(pair.problem_diag, again.problem_diag)


def test_scaling_study_validates_samples_and_target(monkeypatch):
    def no_instance(n, seed):
        raise AssertionError("an instance was built before the arguments were checked")

    monkeypatch.setattr(xp, "make_instance", no_instance)
    with pytest.raises(ValueError, match="samples"):
        xp.scaling_study([2, 3, 4], samples=0)
    with pytest.raises(ValueError, match="target_P"):
        xp.scaling_study([2, 3, 4], target_P=1.0)


# -------------------------------------------------------------------- sweep_T


def test_sweep_t_returns_requested_grid():
    pair = ham.pair_from_seed(2, 4)
    grid = np.array([0.1, 0.5, 1.0, 2.0])
    curves = xp.sweep_T(pair, grid, steps=256)
    assert set(curves) == {"linear", "feedback"}
    for fam, arr in curves.items():
        np.testing.assert_array_equal(arr[:, 0], grid)
        assert np.all((arr[:, 1] >= 0) & (arr[:, 1] <= 1))


def test_sweep_t_feedback_hits_each_time_exactly():
    # realized time is engineered to equal the requested T, so the curves
    # are an equal-time comparison by construction
    pair = ham.pair_from_seed(2, 4)
    ctx = evo.Instance(pair, 512)
    k = 0.73 / ctx.unit_time
    assert k * ctx.unit_time == pytest.approx(0.73, rel=1e-12)
    rec = ctx.evolve("feedback", k)
    assert rec.T == pytest.approx(0.73, rel=1e-9)


def _one_run(ctx, family, T) -> float:
    """P of one sweep, run as a batch of one."""
    [P] = ctx.run([(family, T)])
    return P.item()


def test_sweep_t_batch_matches_single_runs():
    pair = ham.pair_from_seed(3, 4)
    grid = np.geomspace(0.05, 40.0, 9)
    curves = xp.sweep_T(pair, grid, steps=256)
    ctx = evo.Instance(pair, 256)
    for fam, arr in curves.items():
        single = [_one_run(ctx, fam, T) for T in grid]
        np.testing.assert_allclose(arr[:, 1], single, atol=1e-12)


def test_sweep_t_validates_grid():
    pair = ham.pair_from_seed(2, 4)
    with pytest.raises(ValueError):
        xp.sweep_T(pair, [1.0, 0.5], steps=128)
    with pytest.raises(ValueError):
        xp.sweep_T(pair, [-1.0, 0.5], steps=128)


# ------------------------------------------------------------- time_to_target


def test_time_to_target_brackets_the_crossing():
    pair = ham.pair_from_seed(2, 0)
    res = xp.time_to_target(pair, "linear", 0.9, steps=512)
    assert res.P_at_T >= 0.9
    # bracket quality: some probe just below T failed the target
    failing = [t for t, p in res.probes if p < 0.9]
    assert failing and max(failing) >= res.T / 1.02
    # minimality within the scan: nothing cheaper ever reached it
    reaching = [t for t, p in res.probes if p >= 0.9]
    assert min(reaching) == pytest.approx(res.T)


def test_time_to_target_feedback_beats_linear_here():
    pair = ham.pair_from_seed(2, 1)  # narrow crossing instance
    lin = xp.time_to_target(pair, "linear", 0.9, steps=1024)
    fb = xp.time_to_target(pair, "feedback", 0.9, steps=1024)
    assert fb.T < lin.T


def test_time_to_target_sudden_reachable():
    pair = ham.pair_from_seed(2, 5)
    plan = evo.build_schedule(pair, steps=256)
    p_frozen = abs(plan.psi0[plan.ground_index]) ** 2
    target = 0.5 * p_frozen  # met even by a nearly instantaneous sweep
    res = xp.time_to_target(pair, "linear", target, steps=256)
    assert res.P_at_T >= target
    assert res.T <= 1e-3 * evo.adiabatic_time(pair)


def _rung_by_rung_time_to_target(ctx, family, target_P, cap_factor=1e6, rtol=0.01):
    """The scan with one single-T run per probe, as the reference."""
    T_ad, probes = ctx.T_ad, []

    def P(T):
        probes.append((T, _one_run(ctx, family, T)))
        return probes[-1][1]

    T = xp._SCAN_START * T_ad
    p = P(T)
    if p >= target_P:
        while p >= target_P and T > xp._SUDDEN_FLOOR * T_ad:
            T /= 2.0
            p = P(T)
        if p >= target_P:
            return xp._finish(T, p, probes)
        lo, hi = T, 2.0 * T
    else:
        while p < target_P:
            T *= 2.0
            if T > cap_factor * T_ad:
                raise UnreachableTargetError(family)
            p = P(T)
        lo, hi = T / 2.0, T
    p_hi = dict(probes)[hi]  # after a walk down, p is P(lo)
    while hi / lo > 1.0 + rtol:
        mid = np.sqrt(lo * hi)
        p_mid = P(mid)
        if p_mid >= target_P:
            hi, p_hi = mid, p_mid
        else:
            lo = mid
    return xp._finish(hi, p_hi, probes)


# (n, seed, target, walks down, scan start): up to a crossing; down to a
# crossing (the first probe already meets 0.4, the sudden limit does not);
# down to the sudden floor without one (0.25 is met even by an instantaneous
# sweep); up at n = 3..5; up from 1e-6 T_ad, which crosses after more than
# one ladder pass (22 or more rungs)
@pytest.mark.parametrize(
    "n, seed, target, walks_down, scan_start",
    [
        pytest.param(2, 1, 0.9, False, 1e-3, id="1-0.9-False"),
        pytest.param(2, 1, 0.4, True, 1e-3, id="1-0.4-True"),
        pytest.param(2, 5, 0.25, True, 1e-3, id="5-0.25-True"),
        pytest.param(3, 1, 0.9, False, 1e-3, id="n3-1-0.9-False"),
        pytest.param(4, 1, 0.9, False, 1e-3, id="n4-1-0.9-False"),
        pytest.param(5, 1, 0.9, False, 1e-3, id="n5-1-0.9-False"),
        pytest.param(2, 1, 0.9, False, 1e-6, id="start1e-6-1-0.9-False"),
        pytest.param(2, 4, 0.9, False, 1e-6, id="start1e-6-4-0.9-False"),
    ],
)
def test_batched_ladder_matches_rung_by_rung_scan(
    monkeypatch, n, seed, target, walks_down, scan_start
):
    monkeypatch.setattr(xp, "_SCAN_START", scan_start)
    pair = ham.pair_from_seed(n, seed)
    ctx = evo.Instance(pair, 512)
    for family in xp.CONTROLLER_FAMILIES:
        got = xp.time_to_target(pair, family, target, steps=512)
        want = _rung_by_rung_time_to_target(ctx, family, target)
        assert (got.probes[1][0] < got.probes[0][0]) == walks_down
        assert [t for t, _ in got.probes] == [t for t, _ in want.probes]
        np.testing.assert_allclose(
            [p for _, p in got.probes], [p for _, p in want.probes], atol=1e-12
        )
        assert got.non_monotone == want.non_monotone
        assert got.T == want.T
        assert got.P_at_T == pytest.approx(want.P_at_T, abs=1e-12)


def _count_run_columns(monkeypatch):
    """The column count of every Instance.run call, appended as they happen."""
    passes = []
    run = evo.Instance.run

    def counted_run(self, batches):
        passes.append(sum(np.size(T) for _, T in batches))
        return run(self, batches)

    monkeypatch.setattr(evo.Instance, "run", counted_run)
    return passes


def test_cap_inside_a_ladder_pass_is_unreachable_like_rung_by_rung_scan(monkeypatch):
    # 3 T_ad stops the ladder at its 12th rung, inside the first pass
    ctx = evo.Instance(ham.pair_from_seed(2, 5), 512)
    for family in xp.CONTROLLER_FAMILIES:
        with pytest.raises(UnreachableTargetError):
            _rung_by_rung_time_to_target(ctx, family, 0.999, cap_factor=3.0)
    monkeypatch.setattr(xp, "_CAP_FACTOR", 3.0)
    passes = _count_run_columns(monkeypatch)
    for family in xp.CONTROLLER_FAMILIES:
        passes.clear()
        res = xp._lockstep_scans(ctx, (family,), 0.999)[family]
        assert res is None
        assert passes == [12]  # no rung beyond the cap is evaluated


def test_scan_evaluates_its_probes_in_three_passes(monkeypatch):
    # one ladder pass (the crossing is within 15 rungs), then the bisection's predicted path:
    # 7 midpoints from ratio 2 to rtol 0.01, and after a miss the path predicted again from
    # the narrower bracket
    ctx = evo.Instance(ham.pair_from_seed(2, 1), 512)
    passes = _count_run_columns(monkeypatch)
    for family, want in (("linear", [16, 7, 6]), ("feedback", [16, 7, 2])):
        passes.clear()
        res = xp._lockstep_scans(ctx, (family,), 0.9)[family]
        assert passes == want
        assert len(res.probes) < sum(passes)
        _assert_same_scan(res, _rung_by_rung_time_to_target(ctx, family, 0.9))


def _line_in_log_t(lines: dict):
    """A stand-in instance whose P is exactly linear in log T: family -> (T at P 0.5, slope)."""
    passes = []

    def run(batches):
        passes.append({family: list(T) for family, T in batches})
        return [0.5 + lines[family][1] * np.log(np.asarray(T) / lines[family][0])
                for family, T in batches]

    plan = SimpleNamespace(psi0=None)
    return SimpleNamespace(T_ad=1.0, plan=plan, ground_population=lambda c: 0.0, run=run), passes


def test_a_bisection_on_a_line_in_log_t_takes_one_pass_along_its_path():
    # the guess from the bracket's two probes is the crossing itself, so each family's first
    # bisection pass is the path it visits; every probe between 0 and 1, the target 0.9
    # crossed at 1.83 and 0.0299, inside the first ladder pass
    inst, passes = _line_in_log_t({"linear": (0.37, 0.25), "feedback": (0.011, 0.4)})
    results = xp._lockstep_scans(inst, xp.CONTROLLER_FAMILIES, 0.9)
    ladder, bisection = passes
    assert [len(ladder[family]) for family in xp.CONTROLLER_FAMILIES] == [16, 16]
    for family, res in results.items():
        visited = [T for T, _ in res.probes]
        assert len(bisection[family]) == 7
        assert bisection[family] == visited[-7:]
        assert visited[:-7] == ladder[family][: len(visited) - 7]
        assert res.P_at_T >= 0.9 > max(p for T, p in res.probes if T < res.T)


@pytest.mark.parametrize(
    "seed, target, want_passes",
    [
        # the sudden limit (P 0.509) meets the target: start and halving ladder at once
        pytest.param(5, 0.25, {"linear": [21], "feedback": [21]},
                     id="sudden-limit-meets-target"),
        # the start meets the target but the sudden limit (P 0.342) does not: nothing cheap
        # predicts the walk down; then the bisection's predicted paths
        pytest.param(1, 0.4, {"linear": [16, 20, 7, 3], "feedback": [16, 20, 7, 6, 2]},
                     id="only-start-meets-target"),
    ],
)
def test_walk_down_is_speculated_from_the_sudden_limit(monkeypatch, seed, target, want_passes):
    ctx = evo.Instance(ham.pair_from_seed(2, seed), 512)
    passes = _count_run_columns(monkeypatch)
    for family in xp.CONTROLLER_FAMILIES:
        passes.clear()
        got = xp._lockstep_scans(ctx, (family,), target)[family]
        assert passes == want_passes[family]
        assert len(got.probes) <= sum(passes)
        want = _rung_by_rung_time_to_target(ctx, family, target)
        assert [t for t, _ in got.probes] == [t for t, _ in want.probes]
        assert got.T == want.T


def test_the_widest_lockstep_pass_holds_both_halving_ladders(monkeypatch):
    # the sudden limit meets the target: each scan's first pass is its start and halving ladder
    ctx = evo.Instance(ham.pair_from_seed(2, 5), 512)
    passes = _count_run_columns(monkeypatch)
    xp._lockstep_scans(ctx, xp.CONTROLLER_FAMILIES, 0.25)
    assert passes == [xp._WIDEST_PASS] == [42]


def _assert_same_scan(got, want):
    assert [t for t, _ in got.probes] == [t for t, _ in want.probes]
    np.testing.assert_allclose(
        [p for _, p in got.probes], [p for _, p in want.probes], rtol=0, atol=1e-12
    )
    assert got.T == want.T
    assert got.non_monotone == want.non_monotone


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from([0.3, 0.6, 0.9]),
)
# the scans part after the ladder: one scan's last bisection pass runs alone
@example(n=2, seed=1, target=0.999)
# n = 5, where (as at n = 4) a probe's P depends in its last bits on its pass's column layout
@example(n=5, seed=1, target=0.9)
@example(n=5, seed=6, target=0.6)
@example(n=5, seed=11, target=0.3)
def test_lockstep_scans_match_per_family_scans(n, seed, target):
    ctx = evo.Instance(ham.pair_from_seed(n, seed), 256)
    lockstep = xp._lockstep_scans(ctx, xp.CONTROLLER_FAMILIES, target)
    assert list(lockstep) == list(xp.CONTROLLER_FAMILIES)
    for family, got in lockstep.items():
        try:
            want = _rung_by_rung_time_to_target(ctx, family, target)
        except UnreachableTargetError:
            assert got is None
            continue
        _assert_same_scan(got, want)
        _assert_same_scan(got, xp.time_to_target(ctx.pair, family, target, steps=256))


def test_instance_scans_share_three_passes(monkeypatch):
    # alone, linear takes passes of 16, 7 and 6 columns and feedback of 16, 7 and 2
    pair = ham.pair_from_seed(2, 1)
    passes = _count_run_columns(monkeypatch)
    got = xp._instance_times(evo.Instance(pair, 512), 0.9)
    assert passes == [32, 14, 8]
    for family in xp.CONTROLLER_FAMILIES:
        assert got[family] == xp.time_to_target(pair, family, 0.9, steps=512).T


def test_an_n5_instance_holds_one_chunk_of_decompositions_a_thread():
    # plan, T_ad scan, level curvature and both scans of one n = 5, 1024-step instance: the
    # plan's 8 MiB of frame maps, one 1 MiB chunk of H(lam) and eigenvectors on the eigen
    # worker and one on the caller's, the level solve's dense output and the passes' columns
    # (the whole midpoint and scan stacks side by side would take 24.4 MiB)
    def times(seed):
        with ThreadPoolExecutor(max_workers=1) as eigen:
            inst = evo.Instance(ham.pair_from_seed(5, seed), 1024, executor=eigen, scan=True)
            return xp._instance_times(inst, 0.9)

    times(2)  # untraced warm-up
    tracemalloc.start()
    try:
        times(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 << 20


def test_lockstep_scans_stop_at_the_cap(monkeypatch):
    # 3 T_ad stops each ladder at its 12th rung, inside the first pass
    monkeypatch.setattr(xp, "_CAP_FACTOR", 3.0)
    ctx = evo.Instance(ham.pair_from_seed(2, 5), 512)
    passes = _count_run_columns(monkeypatch)
    evaluated = []
    run = ctx.run

    def recorded_run(batches):
        evaluated.extend(T for _, Ts in batches for T in Ts)
        return run(batches)

    monkeypatch.setattr(ctx, "run", recorded_run)
    results = xp._lockstep_scans(ctx, xp.CONTROLLER_FAMILIES, 0.999)
    assert all(r is None for r in results.values())
    assert passes == [24]
    assert max(evaluated) <= 3.0 * ctx.T_ad  # no rung beyond the cap is evaluated


def test_time_to_target_unreachable_under_cap(monkeypatch):
    monkeypatch.setattr(xp, "_CAP_FACTOR", 1e-2)
    pair = ham.pair_from_seed(2, 5)
    T_ad = evo.adiabatic_time(pair)
    message = f"linear sweep did not reach P >= 0.999 below T = 0.01 * T_ad = {0.01 * T_ad:.3g}"
    with pytest.raises(UnreachableTargetError, match=f"^{re.escape(message)}$"):
        xp.time_to_target(pair, "linear", 0.999, steps=256)


def test_time_to_target_refuses_an_adiabatic_time_that_is_not_finite():
    # the minimum gap squared underflows: the scan once returned T = inf and P = nan
    pair = ham.make_pair(1, np.array([-8.80899680437482e-179]))
    for family in xp.CONTROLLER_FAMILIES:
        with pytest.raises(SimulationError, match="no finite adiabatic time"):
            xp.time_to_target(pair, family, steps=64)


def test_scaling_study_excludes_an_instance_without_a_finite_adiabatic_time(monkeypatch):
    # the minimum gap's square overflows; this one instance once ended the whole study
    epsilon = [1.8976573441440942e270, -3.131609715724274e-214, -1.5476340718728332e269]
    first, real = xp.instance_seed(7, 2, 0), xp.make_instance

    def make_instance(n, seed):
        return ham.make_pair(2, np.array(epsilon), seed) if seed == first else real(n, seed)

    monkeypatch.setattr(xp, "make_instance", make_instance)
    with pytest.raises(SimulationError, match="no finite adiabatic time"):
        xp.time_to_target(make_instance(2, first), "linear", steps=64)
    summary = xp.scaling_study((2, 3, 4), samples=2, steps=64)
    assert summary.exclusions == {"no finite T_ad": 2}
    assert [r.excluded for r in summary.records] == ["no finite T_ad"] + [None] * 5
    assert [c.excluded for c in summary.cells] == [1, 1, 0, 0, 0, 0]
    assert [c.count for c in summary.cells] == [1, 1, 2, 2, 2, 2]


def test_non_monotone_probes_are_flagged():
    res = xp._finish(
        2.0, 0.95, [(0.5, 0.30), (1.0, 0.80), (1.5, 0.60), (2.0, 0.95)]
    )
    assert res.non_monotone
    res = xp._finish(2.0, 0.95, [(0.5, 0.30), (1.0, 0.80), (2.0, 0.95)])
    assert not res.non_monotone


# -------------------------------------------------------------- scaling study


def test_scaling_study_validates_sizes():
    with pytest.raises(ValueError):
        xp.scaling_study((3, 2, 4))
    with pytest.raises(ValueError):
        xp.scaling_study((1, 2, 3))
    with pytest.raises(FitUnderdeterminedError):
        xp.scaling_study((2, 3))


def test_scaling_study_small_ensemble_accounting():
    spec = dict(n_values=(2, 3, 4), samples=3, master_seed=11)
    summary = xp.scaling_study(**spec, steps=256)
    assert len(summary.cells) == 6  # 3 sizes x 2 families
    for cell in summary.cells:
        assert cell.count + cell.excluded == 3
        if cell.count:
            assert np.isfinite(cell.mean_T) and cell.mean_T > 0
    assert set(summary.fits) == {"linear", "feedback"}
    # rerunning the same spec reproduces the numbers exactly
    again = xp.scaling_study(**spec, steps=256)
    for a, b in zip(summary.cells, again.cells):
        assert a == b


def test_scaling_study_worker_pool_matches_serial():
    spec = dict(n_values=(2, 3, 4), samples=2, master_seed=3)
    serial = xp.scaling_study(**spec, steps=256, workers=0)
    pooled = xp.scaling_study(**spec, steps=256, workers=2)
    for a, b in zip(serial.cells, pooled.cells):
        assert a == b
    assert serial.records == pooled.records


def test_map_instances_keeps_order_and_exclusion_reason(degenerate_seed):
    degenerate_seed(xp.instance_seed(5, 3, 0))
    got = xp.map_instances(lambda pair: (pair.n, pair.seed), (2, 3), 2, 5)
    keys = [(n, i, xp.instance_seed(5, n, i)) for n in (2, 3) for i in range(2)]
    assert [(r.n, r.index, r.seed) for r in got] == keys
    assert [r.value for r in got] == [(2, keys[0][2]), (2, keys[1][2]), None, (3, keys[3][2])]
    assert [r.excluded for r in got] == [None, None, "degenerate", None]


@pytest.mark.parametrize("workers", [-1, (os.cpu_count() or 1) + 1])
def test_map_instances_rejects_worker_counts_before_any_work(workers):
    def task(pair):
        raise AssertionError("no instance may run")

    with pytest.raises(ValueError, match="workers"):
        xp.map_instances(task, (2,), 1, 7, workers)


# an n = 2 problem whose minimum gap squared overflows: it has no finite adiabatic time
_NO_T_AD = ham.make_pair(
    2, [1.8976573441440942e270, -3.131609715724274e-214, -1.5476340718728332e269])


def _recorded_map_instances(monkeypatch) -> list:
    """(task, records) of every map_instances call, appended as each returns."""
    calls, real = [], xp.map_instances

    def recording(task, *args):
        records = real(task, *args)
        calls.append((task, records))
        return records

    monkeypatch.setattr(xp, "map_instances", recording)
    return calls


def test_serial_records_equal_one_task_per_instance_bitwise(monkeypatch, degenerate_seed):
    # every exclusion reason: two degenerate instances, one without a finite T_ad, and,
    # with the scans capped at 3 T_ad, families that cannot reach the target
    degenerate_seed(xp.instance_seed(9, 3, 1), xp.instance_seed(9, 4, 0))
    calls = _recorded_map_instances(monkeypatch)
    with monkeypatch.context() as m:
        no_t_ad, made = xp.instance_seed(9, 2, 1), xp.make_instance
        m.setattr(xp, "make_instance",
                  lambda n, seed: _NO_T_AD if seed == no_t_ad else made(n, seed))
        m.setattr(xp, "_CAP_FACTOR", 3.0)
        summary = xp.scaling_study((2, 3, 4, 5), samples=2, master_seed=9, steps=128)
        assert set(summary.exclusions) == {"degenerate", "no finite T_ad", "unreachable"}
        assert [r.value for r in summary.records].count(None) == 3
        ((task, records),) = calls
        alone = [xp._run_instance(task, (r.n, r.index, r.seed)) for r in records]
    for n in (2, 3, 4, 5):
        res = xp.delta_p_sweep([0.03, 0.3], n=n, samples=2, master_seed=9, steps=128)
        assert res.excluded == int(n in (3, 4))
        task, records = calls[-1]
        alone += [xp._run_instance(task, (r.n, r.index, r.seed)) for r in records]
    # repr writes every float round-trip exact: equal text is equal bits
    assert [repr(r) for _, records in calls for r in records] == [repr(r) for r in alone]


def test_the_t_ad_exclusion_wins_over_a_curvature_failure(monkeypatch):
    # the level ODE runs before T_ad is read, and its error is held for the scans
    failed, curvature = [], spectral.curvature_profile

    def fails_on(bad):
        def curvature_profile(pair, lams):
            if pair is bad:
                failed.append(pair)
                raise SimulationError("the level_dynamics route gave a non-finite curvature c2")
            return curvature(pair, lams)

        return curvature_profile

    first, made = xp.instance_seed(9, 2, 0), xp.make_instance
    monkeypatch.setattr(xp, "make_instance",
                        lambda n, seed: _NO_T_AD if seed == first else made(n, seed))
    monkeypatch.setattr(spectral, "curvature_profile", fails_on(_NO_T_AD))
    summary = xp.scaling_study((2, 3, 4), samples=2, master_seed=9, steps=64)
    assert failed == [_NO_T_AD]  # tried, and dropped once T_ad excluded the instance
    assert summary.records[0].excluded == "no finite T_ad"
    # with a finite T_ad, the curvature's error is raised and ends the study
    bad = made(3, xp.instance_seed(9, 3, 1))
    monkeypatch.setattr(xp, "make_instance",
                        lambda n, seed: bad if seed == bad.seed else made(n, seed))
    monkeypatch.setattr(spectral, "curvature_profile", fails_on(bad))
    with pytest.raises(SimulationError, match="non-finite curvature"):
        xp.scaling_study((2, 3, 4), samples=2, master_seed=9, steps=64)


def test_a_standalone_feedback_scan_raises_t_ads_error_before_a_curvature_failure(monkeypatch):
    # as in an ensemble, the level ODE runs before T_ad is read, and its error is held
    failed = []

    def curvature_profile(pair, lams):
        failed.append(pair)
        raise SimulationError("the level_dynamics route gave a non-finite curvature c2")

    monkeypatch.setattr(spectral, "curvature_profile", curvature_profile)
    with pytest.raises(SimulationError, match="no finite adiabatic time"):
        xp.time_to_target(_NO_T_AD, "feedback", steps=64)
    assert failed == [_NO_T_AD]
    # with a finite T_ad, the curvature's error is raised
    with pytest.raises(SimulationError, match="non-finite curvature"):
        xp.time_to_target(ham.pair_from_seed(3, 1), "feedback", steps=64)


@pytest.mark.parametrize("family", xp.CONTROLLER_FAMILIES)
def test_a_standalone_scan_takes_t_ads_ground_scan_off_the_caller_for_feedback_only(
    monkeypatch, family
):
    threads, scan = [], evo._ground_scan

    def recorded(pair):
        threads.append(threading.current_thread())
        return scan(pair)

    monkeypatch.setattr(evo, "_ground_scan", recorded)
    xp.time_to_target(ham.pair_from_seed(3, 2), family, steps=128)
    (thread,) = threads
    if family == "feedback":  # on the call's own worker, joined before it returned
        assert thread.name.startswith("aqcsim-eigen") and not thread.is_alive()
    else:  # a linear scan has no level ODE to overlap
        assert thread is threading.current_thread()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_standalone_scan_equals_one_run_on_the_caller_alone(n):
    # the call's worker and the order of the level ODE and T_ad move no bit of the result
    pair = ham.pair_from_seed(n, 4)
    for family in xp.CONTROLLER_FAMILIES:
        alone = xp._lockstep_scans(evo.Instance(pair, 256), (family,), 0.9)[family]
        assert repr(xp.time_to_target(pair, family, 0.9, steps=256)) == repr(alone)


_PUBLIC_CALLS = {
    "time_to_target-linear":
        lambda: xp.time_to_target(ham.pair_from_seed(4, 1), "linear", steps=128),
    "time_to_target-feedback":
        lambda: xp.time_to_target(ham.pair_from_seed(4, 1), "feedback", steps=128),
    "sweep_T": lambda: xp.sweep_T(ham.pair_from_seed(4, 1), [0.5, 2.0], steps=128),
    "evolve": lambda: evo.Instance(ham.pair_from_seed(4, 1), 128).evolve("feedback", 0.1),
    "map_instances-serial": lambda: xp.scaling_study((2, 3, 4), samples=1, steps=64),
    "map_instances-pool":
        lambda: xp.delta_p_sweep([0.1], n=3, samples=2, steps=64, workers=2),
}


@pytest.mark.parametrize("call", _PUBLIC_CALLS.values(), ids=list(_PUBLIC_CALLS))
def test_no_thread_outlives_a_public_call(call):
    threads = threading.active_count()
    call()
    assert threading.active_count() == threads, threading.enumerate()


def test_an_error_building_the_next_instance_is_recorded_against_it(monkeypatch):
    seeds = [xp.instance_seed(5, 3, i) for i in range(3)]
    finished, built = [], evo.Instance

    def finish(inst):
        finished.append(inst.pair.seed)
        return inst.T_ad

    def building(error):
        def instance(pair, *args, **kwargs):
            if pair.seed == seeds[1]:
                raise error
            return built(pair, *args, **kwargs)

        return instance

    task = xp._InstanceTask(finish, 64, scan=True)
    want = xp.map_instances(task, (3,), 3, 5)
    monkeypatch.setattr(evo, "Instance", building(xp._Excluded("refused while built")))
    got = xp.map_instances(task, (3,), 3, 5)
    assert [r.excluded for r in got] == [None, "refused while built", None]
    assert (got[0], got[2]) == (want[0], want[2])
    # an error that excludes nothing still waits for every earlier instance's record
    monkeypatch.setattr(evo, "Instance", building(RuntimeError("no plan")))
    finished.clear()
    with pytest.raises(RuntimeError, match="no plan"):
        xp.map_instances(task, (3,), 3, 5)
    assert finished == seeds[:1]


def test_a_serial_ensemble_builds_one_instance_ahead_on_one_eigen_thread(monkeypatch):
    before = set(threading.enumerate())
    events, frames, scan = [], evo._MidpointFrames.work, evo._ground_scan

    def on_thread(name, work, seed):
        def recorded(arg, *args):
            events.append((name, seed(arg), threading.current_thread()))
            return work(arg, *args)

        return recorded

    class Instance(evo.Instance):
        def __init__(self, pair, *args, **kwargs):
            events.append(("start", pair.seed))
            super().__init__(pair, *args, **kwargs)

    def finish(inst):
        events.append(("finish", inst.pair.seed))
        return inst.T_ad

    # the worker's side of each plan's chunk queue, whatever share of the chunks it takes
    monkeypatch.setattr(evo._MidpointFrames, "work",
                        on_thread("frames", frames, lambda queue: queue.pair.seed))
    monkeypatch.setattr(evo, "_ground_scan", on_thread("scan", scan, lambda pair: pair.seed))
    monkeypatch.setattr(evo, "Instance", Instance)
    records = xp.map_instances(xp._InstanceTask(finish, 64, scan=True), (3,), 3, 5)
    a, b, c = (r.seed for r in records)
    assert [e for e in events if len(e) == 2] == [
        ("start", a), ("start", b), ("finish", a), ("start", c), ("finish", b), ("finish", c)]
    # each instance queues its T_ad scan, then its frames, all on one worker thread
    queued = [e for e in events if len(e) == 3]
    assert [e[:2] for e in queued] == [(w, s) for s in (a, b, c) for w in ("scan", "frames")]
    (worker,) = {e[2] for e in queued}
    assert worker.name.startswith("aqcsim-eigen")
    # joined before map_instances returned, and no other thread was left either
    assert not worker.is_alive()
    assert [t.name for t in threading.enumerate() if t not in before] == []
    assert [r.value for r in records] == [evo.adiabatic_time(xp.make_instance(3, s))
                                          for s in (a, b, c)]
    monkeypatch.undo()
    xp.delta_p_sweep([0.1], n=3, samples=2, steps=64)
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_ensembles_count_exclusions_by_reason(monkeypatch, degenerate_seed):
    degenerate_seed(xp.instance_seed(9, 2, 1))
    # one instance whose linear P is 0 at the last gain, and one whose
    # feedback scan cannot reach the target
    zero_lin, stuck = xp.instance_seed(9, 2, 2), xp.instance_seed(9, 3, 0)
    run, scans = evo.Instance.run, xp._lockstep_scans

    def zero_last_p(inst, batches):
        P = run(inst, batches)
        if inst.pair.seed == zero_lin:
            P[-1] = np.append(P[-1][:-1], 0.0)
        return P

    def unreachable_feedback(inst, families, *args):
        results = scans(inst, families, *args)
        if inst.pair.seed == stuck:
            results["feedback"] = None
        return results

    monkeypatch.setattr(evo.Instance, "run", zero_last_p)
    monkeypatch.setattr(xp, "_lockstep_scans", unreachable_feedback)
    res = xp.delta_p_sweep([0.1, 0.3], n=2, samples=4, master_seed=9, steps=128)
    assert (res.count, res.excluded) == (2, 2)
    assert res.exclusions == {"degenerate": 1, "zero P_lin": 1}
    assert [r.excluded for r in res.records] == [None, "degenerate", "zero P_lin", None]
    kept = [r.value for r in res.records if not r.excluded]
    assert res.count == len(kept) and res.excluded == len(res.records) - len(kept)
    np.testing.assert_array_equal(res.mean_dP, np.mean(kept, axis=0))
    assert res.exclusions == dict(Counter(r.excluded for r in res.records if r.excluded))

    summary = xp.scaling_study((2, 3, 4), samples=2, master_seed=9, steps=128)
    # the degenerate instance once per family, the stuck one for feedback only
    assert summary.exclusions == {"degenerate": 2, "unreachable": 1}
    assert [c.excluded for c in summary.cells] == [1, 1, 0, 1, 0, 0]
    reasons = Counter()
    for cell in summary.cells:
        block = [r for r in summary.records if r.n == cell.n]
        Ts = [None if r.excluded else r.value[cell.controller] for r in block]
        ok = [T for T in Ts if T is not None]
        assert (cell.count, cell.excluded) == (len(ok), len(block) - len(ok))
        assert cell.mean_T == float(np.mean(ok))
        reasons.update(r.excluded or "unreachable" for r, T in zip(block, Ts) if T is None)
    assert summary.exclusions == dict(reasons)


def test_power_law_fit_recovers_exact_law():
    n = np.array([2, 3, 4, 5])
    times = 0.7 * n**2.5
    fit = xp.fit_power_law(n, times)
    assert fit.exponent == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(0.7), abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
    # point order must not matter
    shuffled = xp.fit_power_law(n[::-1], times[::-1])
    assert shuffled.exponent == pytest.approx(fit.exponent, abs=1e-12)


# ------------------------------------------------------------------- delta-P


def test_delta_p_sweep_contracts():
    ks = np.array([0.03, 0.1, 0.3])
    res = xp.delta_p_sweep(ks, n=2, samples=4, master_seed=9, steps=256)
    np.testing.assert_array_equal(res.k_values, ks)
    assert res.mean_dP.shape == (3,)
    assert res.count + res.excluded == 4
    again = xp.delta_p_sweep(ks, n=2, samples=4, master_seed=9, steps=256)
    np.testing.assert_array_equal(res.mean_dP, again.mean_dP)


def test_delta_p_sweep_worker_pool_matches_serial():
    ks = np.array([0.03, 0.1, 0.3])
    serial = xp.delta_p_sweep(ks, n=2, samples=4, master_seed=3, steps=256, workers=0)
    pooled = xp.delta_p_sweep(ks, n=2, samples=4, master_seed=3, steps=256, workers=2)
    np.testing.assert_array_equal(serial.mean_dP, pooled.mean_dP)
    np.testing.assert_array_equal(serial.std_dP, pooled.std_dP)
    assert (serial.count, serial.exclusions) == (pooled.count, pooled.exclusions)
    assert serial.records == pooled.records


def test_no_plan_thread_is_alive_when_map_instances_forks(monkeypatch):
    # plans built in this process first, on a worker of the caller's and on the worker a
    # serial ensemble owns: no such thread may be left by the fork
    before = {thread.name for thread in threading.enumerate()}
    with ThreadPoolExecutor(max_workers=1) as pool:
        evo.build_schedule(ham.pair_from_seed(3, 1), steps=64, executor=pool).frame_maps
    xp.delta_p_sweep([0.1], n=3, samples=2, steps=64)
    at_fork = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            at_fork.append([thread.name for thread in threading.enumerate()])
            return super().map(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    res = xp.delta_p_sweep([0.1, 0.3], n=3, samples=2, workers=2, steps=64)
    assert res.count + res.excluded == 2
    (names,) = at_fork
    assert set(names) <= before


def test_delta_p_sweep_validates_gains():
    with pytest.raises(ValueError):
        xp.delta_p_sweep([0.3, 0.1], samples=2)
    with pytest.raises(ValueError):
        xp.delta_p_sweep([-0.1, 0.2], samples=2)


def test_delta_p_equal_time_comparison_is_fair():
    # the linear arm runs at the feedback arm's realized time, so a gain
    # whose schedule is very long should push both arms adiabatic (dP -> 0)
    pair = xp.make_instance(2, xp.instance_seed(9, 2, 0))
    ctx = evo.Instance(pair, 512)
    k_slow = 200.0 * ctx.T_ad / ctx.unit_time
    T = k_slow * ctx.unit_time
    p_fb = _one_run(ctx, "feedback", T)
    p_lin = _one_run(ctx, "linear", T)
    assert p_fb > 0.99 and p_lin > 0.99


def test_delta_p_rows_match_single_runs():
    ks = tuple(np.geomspace(3e-3, 3.0, 13))
    master_seed, steps = 9, 256
    pair = xp.make_instance(2, xp.instance_seed(master_seed, 2, 0))
    rows = xp._instance_delta_p(evo.Instance(pair, steps), ks)
    ctx = evo.Instance(pair, steps)
    want = []
    for k in ks:
        T = k * ctx.unit_time
        p_fb, p_lin = _one_run(ctx, "feedback", T), _one_run(ctx, "linear", T)
        want.append((p_fb - p_lin) / p_lin)
    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda pair: evo.Instance(pair, 64).evolve("linear", np.nan),
                     id="linear-nan"),
        pytest.param(lambda pair: evo.Instance(pair, 64).evolve("linear", np.inf),
                     id="linear-inf"),
        pytest.param(lambda pair: evo.Instance(pair, 64).evolve("feedback", np.nan),
                     id="feedback-nan"),
        pytest.param(lambda pair: evo.Instance(pair, 64, np.nan), id="floor-nan"),
        pytest.param(lambda pair: ham.make_pair(2, np.zeros(3), Z=np.nan), id="bias-Z-nan"),
        pytest.param(lambda pair: evo.BackactionWindow(np.nan, 2.0, 1.0), id="window-nan"),
        pytest.param(lambda pair: xp.sweep_T(pair, [1.0, np.nan], steps=64), id="sweep-T-nan"),
        pytest.param(lambda pair: xp.sweep_T(pair, [1.0, np.inf], steps=64), id="sweep-T-inf"),
        pytest.param(
            lambda pair: xp.delta_p_sweep([np.nan], n=2, samples=1, steps=64), id="deltap-nan"
        ),
        pytest.param(
            lambda pair: xp.time_to_target(pair, "linear", target_P=np.nan, steps=64),
            id="target-nan",
        ),
        pytest.param(
            lambda pair: xp.scaling_study((2, 3, 4), samples=1, target_P=np.nan, steps=64),
            id="scaling-target-nan",
        ),
        pytest.param(lambda pair: evo.Instance(pair, 64).run([("linear", np.nan)]), id="run-nan"),
        pytest.param(lambda pair: evo.Instance(pair, 64).run([("feedback", np.inf)]), id="run-inf"),
        pytest.param(
            lambda pair: xp.sweep_T(pair, [1.0, 2.0], steps=64, curvature_floor=np.nan),
            id="sweep-T-floor-nan",
        ),
        pytest.param(
            lambda pair: xp.sweep_T(pair, [1.0, 2.0], steps=64, curvature_floor=-1.0),
            id="sweep-T-floor-negative",
        ),
    ],
)
def test_non_finite_inputs_are_refused(call):
    with pytest.raises(ValueError):
        call(ham.pair_from_seed(2, 1))


@pytest.mark.parametrize("target_P", [0.0, 1.0, np.nan])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda P: xp.time_to_target(ham.pair_from_seed(2, 1), "linear", P, steps=64),
            id="time-to-target",
        ),
        pytest.param(
            lambda P: xp.scaling_study((2, 3, 4), samples=1, target_P=P, steps=64),
            id="scaling-study",
        ),
    ],
)
def test_both_target_P_refusals_share_one_message(monkeypatch, call, target_P):
    def nothing_built(*args, **kwargs):
        raise AssertionError("built before target_P was checked")

    monkeypatch.setattr(evo, "Instance", nothing_built)
    monkeypatch.setattr(xp, "instance_seed", nothing_built)
    with pytest.raises(ValueError, match=rf"^target_P must lie in \(0, 1\), got {target_P}$"):
        call(target_P)


def _sign_sensitive_outputs(pair) -> dict:
    """Everything the figures read from one instance, as name -> bytes or str."""
    steps = 256
    out = {}
    scans = xp._lockstep_scans(evo.Instance(pair, steps), xp.CONTROLLER_FAMILIES, 0.9)
    for fam, res in scans.items():
        if res is None:
            out[f"scan {fam}"] = "unreachable"
        else:
            out[f"scan {fam}"] = np.array([res.T, *np.ravel(res.probes)]).tobytes()
    T_ad = evo.adiabatic_time(pair)
    curves = xp.sweep_T(pair, T_ad * np.array([0.5, 1.0, 2.0]), steps=steps)
    out.update({f"sweep_T {fam}": curve.tobytes() for fam, curve in curves.items()})
    rec = evo.Instance(pair, steps).evolve("feedback", 0.1, sample_stride=32)
    out["evolve"] = np.array([rec.P, rec.T, T_ad]).tobytes()
    out["trajectory"] = rec.samples.tobytes()
    c2_full, c2_pair, route = spectral.curvature_profile(pair, np.linspace(1.0, 0.0, 129))
    out["profile"] = np.concatenate([c2_full, c2_pair]).tobytes()
    out["route"] = route
    return out


@pytest.mark.parametrize(
    "pair",
    [
        *(pytest.param(ham.pair_from_seed(n, 3), id=f"n{n}") for n in (2, 3, 4, 5)),
        # an exactly degenerate excited pair: the diagonalization route
        pytest.param(
            ham.make_pair(2, np.array([1.0, 1.0, 0.0])),
            id="degenerate",
        ),
    ],
)
def test_no_output_depends_on_eigenvector_signs(monkeypatch, pair):
    # eigh's eigenvector signs are LAPACK's choice; another LAPACK is modelled
    # by negating every even-indexed column, the same columns on every call
    want = _sign_sensitive_outputs(pair)
    eigh, calls = np.linalg.eigh, []

    def flipped(H):
        calls.append(H.shape)
        w, V = eigh(H)
        V = V.copy()
        V[..., 0::2] *= -1.0
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    got = _sign_sensitive_outputs(pair)
    assert calls, "no decomposition went through np.linalg.eigh"
    assert got.keys() == want.keys()
    assert [key for key in want if got[key] != want[key]] == []
