"""Seeded ensemble experiments: P(T) sweeps, time-to-target scaling, gain study.

Per-instance work goes through an evolution.Instance holding the schedule
plan, the curvature source and the unit-gain pace.  Every total time
scanned on an instance -- a P(T) grid, a gain grid with both controllers
-- is one column of a single Instance.run call, one batched propagation
through the plan's cached eigensystems.  A time-to-target scan decides its
probes one at a time, but evaluates them in a few such passes: each pass
holds every probe the scan may need next (ladder rungs, or a few levels of
the bisection tree), and the scan replays its own decisions on those
values.  The scan is a generator that yields the T values it needs and
receives their P, so the scans of both controllers on one instance run in
lockstep: an instance's two scans share three passes.

Both ensembles run through map_instances, which seeds each instance, skips
degenerate ones, optionally fans out over a process pool and returns, in
order, one InstanceRecord (n, index, seed, value or exclusion) per instance.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

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

CONTROLLER_FAMILIES = ("linear", "feedback")


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
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    cpus = os.cpu_count() or 1
    if not 0 <= workers <= cpus:
        raise ValueError(f"workers must lie in [0, {cpus}] (the CPU count), got {workers}")
    keys = [(n, i, instance_seed(master_seed, n, i)) for n in n_values for i in range(samples)]
    run = partial(_run_instance, task)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, keys, chunksize=4))
    return list(map(run, keys))


def _run_instance(task, key: tuple) -> InstanceRecord:
    n, _, seed = key
    try:
        pair = make_instance(n, seed)
        ham.problem_ground_index(pair)  # degeneracy guard
        return InstanceRecord(*key, value=task(pair))
    except DegenerateGroundError:
        return InstanceRecord(*key, excluded="degenerate")
    except _Excluded as reason:
        return InstanceRecord(*key, excluded=reason.args[0])


def _ascending_grid(name: str, values) -> np.ndarray:
    """values as a float array; ValueError unless non-empty, finite, positive and strictly ascending."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all((values > 0) & (values < np.inf)) or np.any(np.diff(values) <= 0):
        raise ValueError(f"{name} must be finite, positive and strictly ascending")
    return values


def sweep_T(
    pair: ham.HamiltonianPair,
    T_values,
    *,
    steps: int = 2048,
    curvature_floor: float | None = None,
):
    """P(T) curves for both controllers on one instance.

    T_values must be non-empty, positive and ascending.  Feedback runs hit
    each target T exactly by setting k = T over the unit-gain pace integral.
    """
    T_values = _ascending_grid("T_values", T_values)
    inst = evo.Instance(pair, steps, curvature_floor)
    P = inst.run([(fam, T_values) for fam in CONTROLLER_FAMILIES])
    return {fam: np.column_stack([T_values, p]) for fam, p in zip(CONTROLLER_FAMILIES, P)}


_SUDDEN_FLOOR = 1e-9  # lower scan bound, in units of T_ad
_CAP_FACTOR = 1e6  # upper scan bound, in units of T_ad
_SCAN_START = 1e-3  # first probe, in units of T_ad
_RTOL = 0.01  # relative width at which the bisection stops
# Bisection levels evaluated per propagation pass: at most 2**4 - 1 = 15
# midpoints.  A ladder pass holds the missed rung and the 15 rungs after it.
_LOOKAHEAD = 4


def time_to_target(
    pair: ham.HamiltonianPair,
    family: str,
    target_P: float = 0.9,
    *,
    steps: int = 2048,
) -> TargetResult:
    """Minimal total time whose sweep reaches P >= target_P.

    Doubles T from an instance-scaled floor until the target is bracketed
    (halving instead when already above it -- near-sudden targets), then
    bisects geometrically to _RTOL relative.  P(T) oscillates near the
    adiabatic time, so the bracket is the first crossing of the scan; any
    non-monotone probe sequence is flagged in the result, not hidden.
    Raises UnreachableTargetError beyond _CAP_FACTOR * T_ad.

    The scan is sequential, but its probes are evaluated speculatively: a
    probe that is not yet known is evaluated in one batched propagation
    together with every probe the scan may need next -- the next 15 rungs
    of the doubling ladder (the whole halving ladder down to the sudden
    floor, when even the sudden limit meets the target), or the next
    _LOOKAHEAD levels of the bisection tree under the current bracket.
    Each speculative T is computed by the same arithmetic as the sequential
    scan, so the decisions, the T and the probes (only those the scan
    visits, in its order) are those of a probe-by-probe scan.  A typical
    scan takes three passes; scaling_study runs both controllers' scans in
    lockstep, so that an instance's two scans share three passes.
    """
    if not 0.0 < target_P < 1.0:
        raise ValueError("target_P must lie in (0, 1)")
    inst = evo.Instance(pair, steps)
    result = _lockstep_scans(inst, (family,), target_P)[family]
    if result is None:
        raise UnreachableTargetError(
            f"{family} sweep did not reach P >= {target_P} below "
            f"T = {_CAP_FACTOR:g} * T_ad = {_CAP_FACTOR * inst.T_ad:.3g}"
        )
    return result


def _lockstep_scans(inst: evo.Instance, families, target_P: float):
    """Run one time-to-target scan per family on inst, sharing every propagation pass.

    Each round evaluates the batches of T that every live scan asks for in
    one inst.run call and hands each scan its P values.  Returns family ->
    TargetResult, or None where _CAP_FACTOR stopped the scan, in the order
    of families.
    """
    p_sudden = float(inst.ground_population(inst.plan.psi0))
    scans = {fam: _scan(inst.T_ad, p_sudden, target_P) for fam in families}
    results, requests = {}, {}

    def resume(family, values):
        try:
            requests[family] = scans[family].send(values)
        except StopIteration as done:
            results[family] = done.value

    for fam in families:
        resume(fam, None)
    while requests:
        live = list(requests.items())
        requests.clear()
        for (fam, _), values in zip(live, inst.run(live)):
            resume(fam, values.tolist())
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
        return _ladder(T, 2.0, below_cap, 2**_LOOKAHEAD)

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

    p_hi = p
    while hi / lo > 1.0 + _RTOL:
        mid = math.sqrt(lo * hi)
        p_mid = yield from P(mid, lambda: _bisection_tree(lo, hi, _LOOKAHEAD))
        if p_mid >= target_P:
            hi, p_hi = mid, p_mid
        else:
            lo = mid
    return _finish(hi, p_hi, probes)


def _ladder(T: float, factor: float, more, count: float = math.inf) -> list:
    """T, T*factor, T*factor**2, ...: at most count rungs, the next one while more(last)."""
    rungs = [T]
    while len(rungs) < count and more(rungs[-1]):
        rungs.append(rungs[-1] * factor)
    return rungs


# The most columns one lockstep pass holds: per scan its start probe and the halving
# ladder down to the sudden floor (21), more than a doubling (16) or bisection (15) pass
_WIDEST_PASS = len(CONTROLLER_FAMILIES) * max(
    2**_LOOKAHEAD, len(_ladder(_SCAN_START, 0.5, lambda T: T > _SUDDEN_FLOOR))
)


def _bisection_tree(lo: float, hi: float, depth: int) -> list:
    """Every midpoint a geometric bisection of (lo, hi) to _RTOL can probe in depth levels."""
    if depth == 0 or hi / lo <= 1.0 + _RTOL:
        return []
    mid = math.sqrt(lo * hi)
    return [
        mid,
        *_bisection_tree(lo, mid, depth - 1),
        *_bisection_tree(mid, hi, depth - 1),
    ]


def _finish(T, p, probes) -> TargetResult:
    ascending = sorted(probes)
    non_monotone = any(b[1] < a[1] for a, b in zip(ascending, ascending[1:]))
    return TargetResult(
        T=float(T), P_at_T=float(p), probes=tuple(probes), non_monotone=non_monotone
    )


def _instance_times(pair, target_P, steps):
    """Time to target per family on one instance; None for a family that cannot reach it."""
    inst = evo.Instance(pair, steps)
    try:  # every scan is scaled by T_ad: an instance without a finite one is excluded
        inst.T_ad
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
    steps: int = 2048,
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

    task = partial(_instance_times, target_P=target_P, steps=steps)
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


def _instance_delta_p(pair, k_values, steps):
    """dP per gain on one instance; excludes it as "zero P_lin" when a linear P is 0."""
    inst = evo.Instance(pair, steps)
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
    steps: int = 2048,
    workers: int = 0,
) -> DeltaPResult:
    """Mean relative improvement of feedback over linear, per gain value.

    For each instance and gain k, the feedback sweep's realized time T is
    fed to a linear sweep of the same T (the equal-time comparison the
    delta-P definition requires), and dP = (P_fb - P_lin) / P_lin.
    Instances with degenerate ground states or numerically zero P_lin are
    excluded and counted.  k_values must be non-empty and samples >= 1.
    """
    k_values = _ascending_grid("k_values", k_values)
    task = partial(_instance_delta_p, k_values=k_values, steps=steps)
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
