"""Seeded ensemble experiments: P(T) sweeps, time-to-target scaling, gain study.

Per-instance work goes through an evolution.Instance holding the schedule
plan, the curvature source and the unit-gain pace.  Every total time
scanned on an instance -- a P(T) grid, a gain grid with both controllers
-- is one column of a single Instance.run call, one batched propagation
through the plan's cached eigensystems.  A time-to-target scan decides its
probes one at a time, but evaluates them in a few such passes: each pass
holds the probes the scan expects to need next (ladder rungs, or the path
the bisection takes if P is linear in log T across its bracket), and the
scan replays its own decisions on those values.  The scan is a generator
that yields the T values it needs and receives their P, so the scans of
both controllers on one instance run in lockstep: an instance's two scans
share three or four passes.

Both ensembles run through map_instances, which seeds each instance, skips
degenerate ones, optionally fans out over a process pool and returns, in
order, one InstanceRecord (n, index, seed, value or exclusion) per instance.

A serial ensemble (workers 0) is a pipeline one instance deep.  Its task
runs in two stages: start builds the evolution.Instance and queues its
eigen work (T_ad's ground scan for scaling_study, then the plan's midpoint
frames from n = 3) on one single-worker executor that lives for the
map_instances call; finish runs the level ODE, T_ad's refinements and the
propagation passes on the caller.  Instance i + 1 is started before
instance i is finished, so that the second core decomposes the next
instance while the caller steps the current one.  The order of every
decomposition's inputs and of every pass is unchanged, so the records are
bitwise those of one task per instance.  time_to_target and sweep_T own
such a worker for their call too.  The process pool runs one whole task
per instance with no worker thread: with as many processes as cores, no
idle core is left to overlap into.  Its module (and
multiprocessing) is imported only when a pool runs.

Instance seeding: instance_seed(master_seed, n, index) feeds the tuple
(master_seed, n, index) through numpy's SeedSequence and keeps the first
64-bit word.  The rule is platform independent and gives every instance an
independent, reconstructible stream; each recorded seed replays its
instance exactly via hamiltonians.pair_from_seed(n, seed).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import evolution as evo
from . import hamiltonians as ham
from .errors import (
    DegenerateGroundError,
    FitUnderdeterminedError,
    SimulationError,
    UnreachableTargetError,
)

__all__ = [
    "EnsembleSummary",
    "InstanceRecord",
    "ScalingCell",
    "PowerLawFit",
    "TargetResult",
    "DeltaPResult",
    "instance_seed",
    "make_instance",
    "map_instances",
    "sweep_T",
    "time_to_target",
    "scaling_study",
    "delta_p_sweep",
]

CONTROLLER_FAMILIES = evo.CONTROLLER_FAMILIES


def instance_seed(master_seed: int, n: int, index: int) -> int:
    """Deterministic per-instance seed from (master_seed, n, index)."""
    ss = np.random.SeedSequence((master_seed, n, index))
    return int(ss.generate_state(1, np.uint64)[0])


def make_instance(n: int, seed: int) -> ham.HamiltonianPair:
    return ham.pair_from_seed(n, seed)


@dataclass(frozen=True)
class ScalingCell:
    n: int
    controller: str
    mean_T: float
    std_T: float
    count: int
    excluded: int


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(mean T) = intercept + exponent * log(n)."""

    exponent: float
    intercept: float
    residual_rms: float


@dataclass(frozen=True, slots=True)
class InstanceRecord:
    """One ensemble instance: the task's value, or None and why it was excluded."""

    n: int
    index: int
    seed: int
    value: object = None
    excluded: str | None = None


class _Excluded(Exception):
    """Raised by a task to exclude its instance; the argument is the reason."""


@dataclass(frozen=True)
class _InstanceTask:
    """A map_instances task on one evolution.Instance, in two stages.

    start builds the instance, its eigen work handed to executor (T_ad's
    ground scan first when scan is set, then the plan's frames); finish
    maps the instance to the task's value.
    """

    finish: Callable
    steps: int
    scan: bool = False

    def start(self, pair, executor) -> evo.Instance:
        return evo.Instance(pair, self.steps, executor=executor, scan=self.scan)


@dataclass(frozen=True)
class EnsembleSummary:
    cells: tuple
    fits: dict
    exclusions: dict  # reason -> count over (instance, controller) pairs
    records: tuple  # InstanceRecord per instance; value is family -> T, None if unreachable


@dataclass(frozen=True)
class TargetResult:
    """Outcome of a time-to-target scan.

    probes records every (T, P) the scan visited, in its order;
    non_monotone flags any P decrease between increasing probe times (the
    near-adiabatic oscillations), which the caller gets to see rather than
    have smoothed away.
    """

    T: float
    P_at_T: float
    probes: tuple
    non_monotone: bool


@dataclass(frozen=True)
class DeltaPResult:
    """Per-gain mean relative improvement of feedback over linear."""

    k_values: np.ndarray
    mean_dP: np.ndarray
    std_dP: np.ndarray
    count: int
    exclusions: dict  # reason -> count of excluded instances
    records: tuple  # InstanceRecord per instance; value is the dP tuple, one per gain

    @property
    def excluded(self) -> int:
        return sum(self.exclusions.values())


def map_instances(task, n_values, samples: int, master_seed: int, workers: int = 0):
    """task(pair) on `samples` seeded instances per n: an InstanceRecord each, in (n, index) order.

    Instance (n, index) is make_instance(n, instance_seed(master_seed, n,
    index)).  An instance whose problem ground state is degenerate is not
    run, and a task raising _Excluded(reason) excludes its instance: the
    record's excluded is then "degenerate" or the reason, and value None.
    workers > 1 runs the instances in a process pool, so task must pickle
    (a functools.partial of a top-level function does); records come back
    in instance order either way, so the output does not depend on workers.
    samples and workers are checked before any key is built.

    Serially, an _InstanceTask is pipelined (see the module docstring):
    instance i + 1 is built and its eigen work queued on one worker thread
    before instance i is finished, and the worker is joined before the
    call returns.  An error raised while building an instance is recorded
    against it (or raised) when its turn comes, after every earlier record.
    The pool keeps one task per instance: with `workers` processes on as
    many cores, no core is idle for a second thread to use.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    cpus = os.cpu_count() or 1
    if not 0 <= workers <= cpus:
        raise ValueError(f"workers must lie in [0, {cpus}] (the CPU count), got {workers}")
    keys = [(n, i, instance_seed(master_seed, n, i)) for n in n_values for i in range(samples)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pools only

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(_run_instance, task), keys, chunksize=4))
    records, current = [], None
    with evo.eigen_worker() as eigen:
        for key in [*keys, None]:
            # instance i + 1 is built, its eigen work queued, before instance i is finished;
            # only those two are alive at once
            ahead = None if key is None else _start_instance(task, eigen, key)
            if current is not None:
                records.append(_finish_instance(task, *current))
            current = ahead
    return records


def _run_instance(task, key: tuple) -> InstanceRecord:
    """The record of one instance, started and finished in turn (no executor)."""
    return _finish_instance(task, *_start_instance(task, None, key))


def _start_instance(task, executor, key: tuple):
    """(key, what finishing the instance takes, or the exception that building it raised)."""
    n, _, seed = key
    try:
        pair = make_instance(n, seed)
        ham.problem_ground_index(pair)  # degeneracy guard
        return key, task.start(pair, executor) if isinstance(task, _InstanceTask) else pair
    except Exception as err:  # raised again when the instance is finished, in key order
        return key, err


def _finish_instance(task, key: tuple, started) -> InstanceRecord:
    """The instance's record: the task's value, its exclusion, or the error raised again."""
    finish = task.finish if isinstance(task, _InstanceTask) else task
    try:
        if isinstance(started, Exception):
            raise started
        return InstanceRecord(*key, value=finish(started))
    except DegenerateGroundError:
        return InstanceRecord(*key, excluded="degenerate")
    except _Excluded as reason:
        return InstanceRecord(*key, excluded=reason.args[0])


def sweep_T(
    pair: ham.HamiltonianPair,
    T_values,
    *,
    steps: int = evo.DEFAULT_STEPS,
    curvature_floor: float | None = None,
):
    """P(T) curves for both controllers on one instance.

    T_values must be non-empty, positive and ascending.  Feedback runs hit
    each target T exactly by setting k = T over the unit-gain pace integral.
    """
    T_values = ham.checked_ascending("T_values", T_values)
    with evo.eigen_worker() as eigen:  # the plan's frames, beside the level ODE
        inst = evo.Instance(pair, steps, curvature_floor, executor=eigen)
        P = inst.run([(fam, T_values) for fam in CONTROLLER_FAMILIES])
    return {fam: np.column_stack([T_values, p]) for fam, p in zip(CONTROLLER_FAMILIES, P)}


_SUDDEN_FLOOR = 1e-9  # lower scan bound, in units of T_ad
_CAP_FACTOR = 1e6  # upper scan bound, in units of T_ad
_SCAN_START = 1e-3  # first probe, in units of T_ad
_RTOL = 0.01  # relative width at which the bisection stops
_LADDER_RUNGS = 16  # rungs of a doubling pass: the missed rung and the 15 after it


def time_to_target(
    pair: ham.HamiltonianPair,
    family: str,
    target_P: float = 0.9,
    *,
    steps: int = evo.DEFAULT_STEPS,
) -> TargetResult:
    """Minimal total time whose sweep reaches P >= target_P.

    Doubles T from an instance-scaled floor until the target is bracketed
    (halving instead when already above it -- near-sudden targets), then
    bisects geometrically to _RTOL relative.  P(T) oscillates near the
    adiabatic time, so the bracket is the first crossing of the scan; any
    non-monotone probe sequence is flagged in the result, not hidden.
    Raises UnreachableTargetError beyond _CAP_FACTOR * T_ad.

    The scan is sequential, but it evaluates its probes speculatively, a
    batched pass at a time (see the module docstring): the ladder rungs
    ahead (_scan), then the bisection's predicted path (_predicted_path).
    Each speculative T comes from the scan's own arithmetic, so the
    decisions, the T and the probes (only those the scan visits, in its
    order) are those of a probe-by-probe scan; a probe's P may move in its
    last bits with the column layout of its pass (at n = 4 and 5).

    The call owns one eigen worker, joined before it returns, for the
    plan's midpoints and, for "feedback", T_ad's ground scan before them
    (_adiabatic_scale); a linear scan has no ODE to overlap, and scans T_ad.
    """
    if not 0.0 < target_P < 1.0:
        raise ValueError(f"target_P must lie in (0, 1), got {target_P}")
    with evo.eigen_worker() as eigen:
        inst = evo.Instance(pair, steps, executor=eigen, scan=family == "feedback")
        _adiabatic_scale(inst, (family,))
        result = _lockstep_scans(inst, (family,), target_P)[family]
    if result is None:
        raise UnreachableTargetError(
            f"{family} sweep did not reach P >= {target_P} below "
            f"T = {_CAP_FACTOR:g} * T_ad = {_CAP_FACTOR * inst.T_ad:.3g}"
        )
    return result


def _adiabatic_scale(inst: evo.Instance, families) -> float:
    """inst.T_ad, after the level ODE if a family is "feedback" (T_ad's scan may run meanwhile).

    The ODE's error is held, and raised again by the first feedback pass,
    so that T_ad's SimulationError comes first.
    """
    if "feedback" in families:
        with suppress(Exception):
            inst.unit_dts
    return inst.T_ad


def _lockstep_scans(inst: evo.Instance, families, target_P: float):
    """Run one time-to-target scan per family on inst, sharing every propagation pass.

    Each round evaluates the batches of T that every live scan asks for in
    one inst.run call and hands each scan its P values.  Returns family ->
    TargetResult, or None where _CAP_FACTOR stopped the scan, in the order
    of families.
    """
    p_sudden = float(inst.ground_population(inst.plan.psi0))
    scans = {fam: _scan(inst.T_ad, p_sudden, target_P) for fam in families}
    # a scan's first send always yields its start probe: it knows no P yet
    results, requests = {}, {fam: next(scan) for fam, scan in scans.items()}
    while requests:
        live = list(requests.items())
        requests.clear()
        for (fam, _), values in zip(live, inst.run(live)):
            try:
                requests[fam] = scans[fam].send(values.tolist())
            except StopIteration as done:
                results[fam] = done.value
    return {fam: results[fam] for fam in families}


def _scan(T_ad: float, p_sudden: float, target_P: float):
    """The time-to-target scan as a generator of propagation requests.

    Yields the list of T it needs evaluated next (the probe it is at and
    the probes it may visit after it), receives their P values in order,
    and returns the TargetResult, or None when the next probe would pass
    _CAP_FACTOR * T_ad.  p_sudden, the P of an instantaneous sweep, picks
    the first speculation: it only predicts which way the scan walks, and
    never enters a decision.
    """
    probes = []
    known: dict[float, float] = {}

    def P(T: float, ahead):
        if T not in known:  # evaluate T and the probes ahead() expects next
            batch = ahead()
            known.update(zip(batch, (yield batch)))
        probes.append((T, known[T]))
        return known[T]

    def below_cap(T: float) -> bool:
        return 2.0 * T <= _CAP_FACTOR * T_ad

    def above_floor(T: float) -> bool:
        return T > _SUDDEN_FLOOR * T_ad

    def doubling():  # the current T and up to 15 rungs above it
        return _ladder(T, 2.0, below_cap, _LADDER_RUNGS)

    def halving():  # the current T and every rung below it to the sudden floor
        return _ladder(T, 0.5, above_floor)

    T = _SCAN_START * T_ad
    p = yield from P(T, halving if p_sudden >= target_P else doubling)
    if p >= target_P:
        # Already above target: walk down to find where it is lost (if ever).
        while p >= target_P and above_floor(T):
            T *= 0.5
            p = yield from P(T, halving)
        if p >= target_P:  # reachable even in the sudden limit
            return _finish(T, p, probes)
        lo, hi = T, 2.0 * T
    else:
        while p < target_P:
            if not below_cap(T):
                return None
            T *= 2.0
            p = yield from P(T, doubling)
        lo, hi = T / 2.0, T

    p_lo, p_hi = known[lo], known[hi]
    while hi / lo > 1.0 + _RTOL:
        mid = math.sqrt(lo * hi)
        p_mid = yield from P(mid, lambda: _predicted_path(lo, hi, p_lo, p_hi, target_P))
        if p_mid >= target_P:
            hi, p_hi = mid, p_mid
        else:
            lo, p_lo = mid, p_mid
    return _finish(hi, p_hi, probes)


def _ladder(T: float, factor: float, more, count: float = math.inf) -> list:
    """T, T*factor, T*factor**2, ...: at most count rungs, the next one while more(last)."""
    rungs = [T]
    while len(rungs) < count and more(rungs[-1]):
        rungs.append(rungs[-1] * factor)
    return rungs


# The most columns one lockstep pass holds: per scan its start probe and the halving
# ladder down to the sudden floor (21), more than a doubling (16) or bisection (7) pass
_WIDEST_PASS = len(CONTROLLER_FAMILIES) * max(
    _LADDER_RUNGS, len(_ladder(_SCAN_START, 0.5, lambda T: T > _SUDDEN_FLOOR))
)


def _predicted_path(lo: float, hi: float, p_lo: float, p_hi: float, target_P: float) -> list:
    """The midpoints a geometric bisection of (lo, hi) to _RTOL visits if P is linear in log T.

    The line through (lo, p_lo) and (hi, p_hi) crosses target_P at
    lo * (hi / lo)**f, f clamped to [0, 1]; the path takes the upper half
    of each bracket whose midpoint reaches that guess.  At most 7 midpoints
    from a bracket of ratio 2, each by the scan's own arithmetic.
    """
    f = min(1.0, max(0.0, (target_P - p_lo) / (p_hi - p_lo)))
    guess = lo * (hi / lo) ** f
    path = []
    while hi / lo > 1.0 + _RTOL:
        mid = math.sqrt(lo * hi)
        path.append(mid)
        if mid >= guess:
            hi = mid
        else:
            lo = mid
    return path


def _finish(T, p, probes) -> TargetResult:
    ascending = sorted(probes)
    non_monotone = any(b[1] < a[1] for a, b in zip(ascending, ascending[1:]))
    return TargetResult(
        T=float(T), P_at_T=float(p), probes=tuple(probes), non_monotone=non_monotone
    )


def _instance_times(inst: evo.Instance, target_P):
    """Time to target per family on one instance; None for a family that cannot reach it."""
    try:  # every scan is scaled by T_ad: an instance without a finite one is excluded
        _adiabatic_scale(inst, CONTROLLER_FAMILIES)
    except SimulationError as err:
        raise _Excluded("no finite T_ad") from err
    scans = _lockstep_scans(inst, CONTROLLER_FAMILIES, target_P)
    return {fam: None if res is None else res.T for fam, res in scans.items()}


def scaling_study(
    n_values,
    samples: int = 100,
    master_seed: int = 7,
    target_P: float = 0.9,
    *,
    steps: int = evo.DEFAULT_STEPS,
    workers: int = 0,
) -> EnsembleSummary:
    """Mean time-to-target versus qubit count, with power-law fits.

    For every n and controller family the study averages time_to_target
    over `samples` seeded instances (excluding degenerate or unreachable
    ones, which are counted per cell) and fits log(mean T) = a + b log(n)
    by least squares.  workers > 1 runs instances in a process pool;
    reduction is in instance order either way, so the output is identical.
    The arguments are checked before any instance is built.
    """
    n_values = tuple(int(n) for n in n_values)
    if not 0.0 < target_P < 1.0:
        raise ValueError(f"target_P must lie in (0, 1), got {target_P}")
    if any(n < 2 for n in n_values) or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be ascending and each >= 2")
    if len(set(n_values)) < 3:
        raise FitUnderdeterminedError(
            f"power-law fit needs >= 3 distinct sizes, got {sorted(set(n_values))}"
        )

    task = _InstanceTask(partial(_instance_times, target_P=target_P), steps, scan=True)
    records = map_instances(task, n_values, samples, master_seed, workers)

    cells = []
    exclusions: Counter = Counter()
    for n in n_values:
        block = [r for r in records if r.n == n]
        for fam in CONTROLLER_FAMILIES:
            Ts = [None if r.excluded else r.value[fam] for r in block]
            ok = [T for T in Ts if T is not None]
            exclusions.update(r.excluded or "unreachable" for r, T in zip(block, Ts) if T is None)
            cells.append(
                ScalingCell(
                    n=n,
                    controller=fam,
                    mean_T=float(np.mean(ok)) if ok else float("nan"),
                    std_T=float(np.std(ok)) if ok else float("nan"),
                    count=len(ok),
                    excluded=len(block) - len(ok),
                )
            )

    fits = {
        fam: fit_power_law(n_values, [c.mean_T for c in cells if c.controller == fam])
        for fam in CONTROLLER_FAMILIES
    }
    return EnsembleSummary(tuple(cells), fits, dict(exclusions), tuple(records))


def fit_power_law(n_values, mean_times) -> PowerLawFit:
    """log-log least squares; order of the points does not matter."""
    order = np.argsort(np.asarray(n_values))
    x = np.log(np.asarray(n_values, dtype=float)[order])
    y = np.log(np.asarray(mean_times, dtype=float)[order])
    b, a = np.polyfit(x, y, 1)
    resid = y - (a + b * x)
    return PowerLawFit(
        exponent=float(b),
        intercept=float(a),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def _instance_delta_p(inst: evo.Instance, k_values):
    """dP per gain on one instance; excludes it as "zero P_lin" when a linear P is 0."""
    T = np.asarray(k_values) * inst.unit_time
    p_fb, p_lin = inst.run([("feedback", T), ("linear", T)])
    if np.any(p_lin == 0.0):
        raise _Excluded("zero P_lin")
    return tuple(((p_fb - p_lin) / p_lin).tolist())


def delta_p_sweep(
    k_values,
    n: int = 2,
    samples: int = 100,
    master_seed: int = 7,
    *,
    steps: int = evo.DEFAULT_STEPS,
    workers: int = 0,
) -> DeltaPResult:
    """Mean relative improvement of feedback over linear, per gain value.

    For each instance and gain k, the feedback sweep's realized time T is
    fed to a linear sweep of the same T (the equal-time comparison the
    delta-P definition requires), and dP = (P_fb - P_lin) / P_lin.
    Instances with degenerate ground states or numerically zero P_lin are
    excluded and counted.  k_values must be non-empty and samples >= 1.
    """
    k_values = ham.checked_ascending("k_values", k_values)
    task = _InstanceTask(partial(_instance_delta_p, k_values=k_values), steps)
    records = map_instances(task, (n,), samples, master_seed, workers)

    kept = np.array([r.value for r in records if not r.excluded])
    nan = np.full(k_values.size, float("nan"))
    return DeltaPResult(
        k_values=k_values,
        mean_dP=kept.mean(axis=0) if len(kept) else nan,
        std_dP=kept.std(axis=0) if len(kept) else nan.copy(),
        count=len(kept),
        exclusions=dict(Counter(r.excluded for r in records if r.excluded)),
        records=tuple(records),
    )
