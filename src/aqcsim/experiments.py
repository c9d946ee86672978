"""Seeded ensemble experiments: P(T) sweeps, time-to-target scaling, gain study.

Per-instance work factors through an _InstanceContext holding the schedule
plan, the level flow and the unit-gain pace integral.  Every total time
scanned on an instance -- a P(T) grid, a gain grid with both controllers,
the doubling ladder of a time-to-target scan -- is one column of a single
batched propagation through the plan's cached eigensystems.

Instance seeding: instance_seed(master_seed, n, index) feeds the tuple
(master_seed, n, index) through numpy's SeedSequence and keeps the first
64-bit word.  The rule is platform independent and gives every instance an
independent, reconstructible stream; each recorded seed replays its
instance exactly via sample_problem(n, seed).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import evolution as evo
from . import hamiltonians as ham
from . import spectral
from .errors import (
    DegenerateGroundError,
    FitUnderdeterminedError,
    UnreachableTargetError,
)

__all__ = [
    "EnsembleSpec",
    "EnsembleSummary",
    "ScalingCell",
    "PowerLawFit",
    "TargetResult",
    "DeltaPResult",
    "instance_seed",
    "make_instance",
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
class EnsembleSpec:
    """Everything defining one ensemble experiment (and hence its outputs)."""

    n_values: tuple
    samples_per_n: int = 100
    master_seed: int = 7
    target_P: float = 0.9
    controller_families: tuple = CONTROLLER_FAMILIES

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.samples_per_n < 1:
            raise ValueError("samples_per_n must be >= 1")
        if not 0.0 < self.target_P < 1.0:
            raise ValueError("target_P must lie in (0, 1)")
        for fam in self.controller_families:
            if fam not in CONTROLLER_FAMILIES:
                raise ValueError(f"unknown controller family {fam!r}")


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


@dataclass(frozen=True)
class EnsembleSummary:
    spec: EnsembleSpec
    cells: tuple
    fits: dict


@dataclass(frozen=True)
class TargetResult:
    """Outcome of a time-to-target scan.

    probes records every (T, P) evaluated in scan order; non_monotone flags
    any P decrease between increasing probe times (the near-adiabatic
    oscillations), which the caller gets to see rather than have smoothed
    away.
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
    excluded: int


class _InstanceContext:
    """Shared per-instance precomputations for repeated runs."""

    def __init__(self, pair, steps=2048, curvature_floor=None, resolution=512):
        self.pair = pair
        self.plan = evo.build_schedule(pair, steps)
        self.flow = spectral.solve_levels(pair)
        probe = evo.PaceController.feedback(k=1.0, curvature_floor=curvature_floor)
        probe, nodes, mids, self.flow = evo._resolve_controller(
            probe, self.plan, self.flow
        )
        self.floor = probe.curvature_floor
        self._unit_dts = evo._cell_times(self.plan, nodes, mids)
        self.unit_time = float(self._unit_dts.sum())
        self._t_ad = None
        self._resolution = resolution

    @property
    def T_ad(self) -> float:
        if self._t_ad is None:
            self._t_ad = evo.adiabatic_time(self.pair, self._resolution)
        return self._t_ad

    def cell_times(self, family: str, T) -> np.ndarray:
        """(cells, len(T)) per-cell times of sweeps of realized total times T."""
        T = np.atleast_1d(np.asarray(T, dtype=float))
        if family == "linear":
            return np.multiply.outer(self.plan.widths, T)
        if family == "feedback":
            return np.multiply.outer(self._unit_dts, T / self.unit_time)
        raise ValueError(f"unknown controller family {family!r}")

    def success(self, dts: np.ndarray) -> np.ndarray:
        """P of every sweep (column of dts), stepped together in one pass."""
        c0 = evo.initial_coefficients(self.plan, dts.shape[1])
        c, _ = evo.propagate(self.plan, dts, c0)
        return np.abs(c[self.plan.ground_index]) ** 2

    def run(self, family: str, T) -> np.ndarray:
        """P after sweeps of realized total times T (scalar or array) for a family."""
        T = np.asarray(T, dtype=float)
        return self.success(self.cell_times(family, T)).reshape(T.shape)

    def gain_to_time(self, k: float) -> float:
        return k * self.unit_time


def sweep_T(
    pair: ham.HamiltonianPair,
    T_values,
    families=CONTROLLER_FAMILIES,
    *,
    steps: int = 2048,
    curvature_floor: float | None = None,
):
    """P(T) curves for both controllers on one instance.

    T_values must be positive ascending.  Feedback runs hit each target T
    exactly by setting k = T over the unit-gain pace integral.
    """
    T_values = np.asarray(T_values, dtype=float)
    if np.any(T_values <= 0) or np.any(np.diff(T_values) <= 0):
        raise ValueError("T_values must be positive and strictly ascending")
    ctx = _InstanceContext(pair, steps=steps, curvature_floor=curvature_floor)
    dts = np.hstack([ctx.cell_times(fam, T_values) for fam in families])
    P = ctx.success(dts).reshape(len(families), T_values.size)
    return {fam: np.column_stack([T_values, p]) for fam, p in zip(families, P)}


_SUDDEN_FLOOR = 1e-9  # lower scan bound, in units of T_ad
_SCAN_START = 1e-3  # first probe, in units of T_ad


def time_to_target(
    pair: ham.HamiltonianPair,
    family: str,
    target_P: float = 0.9,
    *,
    steps: int = 2048,
    cap_factor: float = 1e6,
    rtol: float = 0.01,
    context: _InstanceContext | None = None,
) -> TargetResult:
    """Minimal total time whose sweep reaches P >= target_P.

    Doubles T from an instance-scaled floor until the target is bracketed
    (halving instead when already above it -- near-sudden targets), then
    bisects geometrically to `rtol` relative.  P(T) oscillates near the
    adiabatic time, so the bracket is the first crossing of the scan; any
    non-monotone probe sequence is flagged in the result, not hidden.
    Raises UnreachableTargetError beyond cap_factor * T_ad.

    The whole ladder, down to the sudden floor or up to the cap, runs as one
    batched propagation; probes records only the rungs up to the first
    crossing, exactly those a rung-by-rung scan would have evaluated.
    """
    ctx = context or _InstanceContext(pair, steps=steps)
    T_ad = ctx.T_ad
    probes = []

    def P(T: float) -> float:
        p = float(ctx.run(family, T))
        probes.append((T, p))
        return p

    T = _SCAN_START * T_ad
    p = P(T)
    above = p >= target_P
    rungs = []
    if above:
        # Already above target: walk down to find where it is lost (if ever).
        while T > _SUDDEN_FLOOR * T_ad:
            T /= 2.0
            rungs.append(T)
    else:
        while 2.0 * T <= cap_factor * T_ad:
            T *= 2.0
            rungs.append(T)
    for T, p in zip(rungs, ctx.run(family, rungs).tolist() if rungs else ()):
        probes.append((T, p))
        if (p >= target_P) != above:
            break
    if (p >= target_P) == above:  # the ladder never crossed the target
        if above:  # reachable even in the sudden limit
            return _finish(T, p, probes)
        raise UnreachableTargetError(
            f"{family} sweep did not reach P >= {target_P} below "
            f"T = {cap_factor:g} * T_ad = {cap_factor * T_ad:.3g}"
        )
    lo, hi = (T, 2.0 * T) if above else (T / 2.0, T)

    p_hi = p
    while hi / lo > 1.0 + rtol:
        mid = math.sqrt(lo * hi)
        p_mid = P(mid)
        if p_mid >= target_P:
            hi, p_hi = mid, p_mid
        else:
            lo = mid
    return _finish(hi, p_hi, probes)


def _finish(T, p, probes) -> TargetResult:
    ascending = sorted(probes)
    non_monotone = any(
        b[1] < a[1] for a, b in zip(ascending, ascending[1:])
    )
    return TargetResult(
        T=float(T), P_at_T=float(p), probes=tuple(probes), non_monotone=non_monotone
    )


def _scaling_task(args):
    """One instance of the scaling study; top level so worker pools can pickle it."""
    n, index, master_seed, target_P, families, steps, cap_factor = args
    seed = instance_seed(master_seed, n, index)
    try:
        pair = make_instance(n, seed)
        ham.problem_ground_index(pair)  # degeneracy guard
    except DegenerateGroundError:
        return {fam: ("degenerate", None) for fam in families}
    ctx = _InstanceContext(pair, steps=steps)
    out = {}
    for fam in families:
        try:
            res = time_to_target(
                pair, fam, target_P, steps=steps, cap_factor=cap_factor, context=ctx
            )
            out[fam] = ("ok", res.T)
        except UnreachableTargetError:
            out[fam] = ("unreachable", None)
    return out


def scaling_study(
    spec: EnsembleSpec,
    *,
    steps: int = 2048,
    cap_factor: float = 1e6,
    workers: int = 0,
) -> EnsembleSummary:
    """Mean time-to-target versus qubit count, with power-law fits.

    For every n and controller family the study averages time_to_target
    over samples_per_n seeded instances (excluding degenerate or
    unreachable ones, which are counted per cell) and fits
    log(mean T) = a + b log(n) by least squares.  workers > 1 runs
    instances in a process pool; reduction is in instance order either way,
    so the output is identical.
    """
    n_values = spec.n_values
    if any(n < 2 for n in n_values) or any(
        b <= a for a, b in zip(n_values, n_values[1:])
    ):
        raise ValueError("n_values must be ascending and each >= 2")
    if len(set(n_values)) < 3:
        raise FitUnderdeterminedError(
            f"power-law fit needs >= 3 distinct sizes, got {sorted(set(n_values))}"
        )

    tasks = [
        (n, idx, spec.master_seed, spec.target_P, spec.controller_families,
         steps, cap_factor)
        for n in n_values
        for idx in range(spec.samples_per_n)
    ]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scaling_task, tasks, chunksize=4))
    else:
        results = [_scaling_task(t) for t in tasks]

    cells = []
    times: dict[str, list] = {fam: [] for fam in spec.controller_families}
    for i, n in enumerate(n_values):
        block = results[i * spec.samples_per_n : (i + 1) * spec.samples_per_n]
        for fam in spec.controller_families:
            ok = [r[fam][1] for r in block if r[fam][0] == "ok"]
            excluded = spec.samples_per_n - len(ok)
            arr = np.array(ok, dtype=float)
            cells.append(
                ScalingCell(
                    n=n,
                    controller=fam,
                    mean_T=float(arr.mean()) if ok else float("nan"),
                    std_T=float(arr.std()) if ok else float("nan"),
                    count=len(ok),
                    excluded=excluded,
                )
            )
            times[fam].append(arr)

    fits = {fam: fit_power_law(n_values, [a.mean() for a in times[fam]])
            for fam in spec.controller_families}
    return EnsembleSummary(spec=spec, cells=tuple(cells), fits=fits)


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


def _deltap_task(args):
    """delta-P rows for one instance; top level for pickling."""
    n, index, master_seed, k_values, steps = args
    seed = instance_seed(master_seed, n, index)
    try:
        pair = make_instance(n, seed)
        ham.problem_ground_index(pair)
    except DegenerateGroundError:
        return None
    ctx = _InstanceContext(pair, steps=steps)
    T = np.array([ctx.gain_to_time(k) for k in k_values])
    dts = np.hstack([ctx.cell_times("feedback", T), ctx.cell_times("linear", T)])
    p_fb, p_lin = ctx.success(dts).reshape(2, T.size)
    if np.any(p_lin == 0.0):
        return None
    return list((p_fb - p_lin) / p_lin)


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
    excluded and counted.
    """
    k_values = np.asarray(k_values, dtype=float)
    if np.any(k_values <= 0) or np.any(np.diff(k_values) <= 0):
        raise ValueError("k_values must be positive and strictly ascending")
    tasks = [(n, idx, master_seed, tuple(k_values), steps) for idx in range(samples)]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_deltap_task, tasks, chunksize=4))
    else:
        results = [_deltap_task(t) for t in tasks]

    kept = np.array([r for r in results if r is not None])
    excluded = sum(1 for r in results if r is None)
    if kept.size == 0:
        empty = np.full(k_values.size, float("nan"))
        return DeltaPResult(k_values, empty, empty.copy(), 0, excluded)
    return DeltaPResult(
        k_values=k_values,
        mean_dP=kept.mean(axis=0),
        std_dP=kept.std(axis=0),
        count=kept.shape[0],
        excluded=excluded,
    )
