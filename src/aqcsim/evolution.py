"""Wavefunction propagation through the annealing sweep.

The sweep integrates d|psi>/dlam = -i (dt/dlam) H(lam) |psi> from lam = 1
to 0.  Both controller families follow one law, dt/dlam = gain * pace(lam):
linear interpolation has pace 1 and gain T_total, curvature feedback has
pace max(|c2|, floor) and gain k, where c2 is the ground-state curvature
supplied live by spectral.curvature_profile (level dynamics, or
diagonalization near a level collision) or by a replayed profile table.
Total time T accumulates as the integral of dt/dlam over lam.

Stepping is unitary by construction: each lam cell applies the exact
exponential of the midpoint Hamiltonian, exp(-i H(lam_mid) dt), through its
eigendecomposition.  Norm drift is therefore a genuine error indicator
(roundoff only), and accuracy in lam is second order in the cell width.
The state is carried as coefficients in the eigenbasis of the current cell:
a step is a phase per level followed by the fixed real overlap
O_s = V_{s+1}^T V_s into the next cell's basis.  The overlaps do not depend
on time, so a block of sweeps with different total times (one column each)
shares every step and every matmul; propagate makes its per-cell views of
its chunk buffers once per call.  It computes the phases and the norms a
chunk of cells at a time: _PHASE_CHUNK cells, fewer where their buffers
would pass _PHASE_BYTES (32 cells of a 32-column pass at n = 5).  Each
cell's step is the same whatever the chunk, so the state is bitwise too.

The lam grid is not uniform.  Cells are distributed by blending a uniform
measure with the rotation rate of the instantaneous ground state, found by
adaptive bisection.  Narrow avoided crossings -- where the ground state can
turn by nearly pi/2 over a tiny lam interval, and where all the interesting
physics happens -- are resolved automatically this way; uniform grids of
practical size step right over them.  The nodes of every cell are laid out
in one vectorized pass, with np.linspace's arithmetic op for op.

An Instance holds one problem instance's plan, curvature source, pace
floor and unit-gain pace; Instance.unit_sweep is the one place that maps
a family to its cell times at gain 1.  Instance.run(batches) steps
(family, T) batches as the columns of one propagate pass, and the
ensembles in the experiments module run every sweep through it;
Instance.evolve(family, gain) runs one sweep and records its trajectory.

Every stacked eigendecomposition here (the plan's midpoints, the T_ad and
min-gap scan, a trajectory's rows) goes through ham.spectrum_chunks,
which bounds each stack by hamiltonians._STACK_BYTES; the callers fill
preallocated outputs, so only those outlive a chunk.  The plan keeps its
midpoint energies and frame maps, not the eigenvectors.

From n = 3 up, the plan's midpoint eigendecomposition (the frame maps,
the midpoint energies and c0) is a queue of chunks: the worker of an
executor the caller owns takes them from the front, and the plan's first
read decomposes those left from the back (see build_schedule).  LAPACK
releases the GIL, while the level ODE and the propagation are
Python-bound stepping, so on two cores they overlap.  Plans start no
thread of their own; an eigen_worker is owned for their call by the
serial ensembles, time_to_target, sweep_T and the CLI's run, and an
Instance built with scan=True queues T_ad's ground scan there ahead of
its frames.  An eigen_worker makes its thread on its first job, so a
call that queues none starts no thread.  At n = 2 (dim 4) a thread
handover costs more than it overlaps: the plan queues nothing, and its
first read decomposes every chunk.  Every output is bitwise the same on
either thread.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, zip_longest

import numpy as np

from . import hamiltonians as ham
from . import spectral
from ._scipy_port import minimize_scalar_bounded
from .errors import SimulationError

__all__ = [
    "RunRecord",
    "BackactionWindow",
    "SchedulePlan",
    "Instance",
    "build_schedule",
    "eigen_worker",
    "initial_coefficients",
    "propagate",
    "min_gap",
    "adiabatic_time",
    "backaction_window_ok",
]

SAMPLE_COLUMNS = ("lambda", "t", "P_instantaneous", "gap", "abs_curvature")

# Fraction of the profile's curvature maximum used as the default pace floor:
# the controller alone would run unboundedly fast where the curvature
# vanishes (the lam -> 1 plateau), which no stepper can follow.
DEFAULT_FLOOR_FRACTION = 1e-6
DEFAULT_STEPS = ham.DEFAULT_STEPS  # re-exported: the steps default of every plan
CONTROLLER_FAMILIES = ("linear", "feedback")  # the families Instance.unit_sweep knows

_ROT_MAX = 0.08  # max ground-state rotation per grid cell, radians
_BASE_CELLS = 64  # uniform cells seeding the adaptive bisection
_MIN_CELL = 1e-7  # bisection width guard
_ROT_WEIGHT = 0.5  # blend between uniform and rotation-proportional measure
_PHASE_CHUNK = 64  # most cells whose phases and norms are computed in one call
# Most bytes of one chunk's states, phases and angles (40 B a level and column a cell):
# 32 cells of a 32-column pass at n = 5, and _PHASE_CHUNK cells of every narrower pass
_PHASE_BYTES = 5 << 18
_SCAN_POINTS = 512  # uniform lam grid of the T_ad and min-gap scans
_THREAD_MIN_DIM = 8  # smallest dim whose plan frames go to a worker; at dim 4 it costs more
# A plan's reader decomposes the chunks it takes in pieces of 1 / _READER_SHARE chunk
# (16 matrices at n = 5), on top of the plan and a pass's buffers: with whole chunks, the
# traced peak of an n = 5, 1024-step linear `run` rose from 9.98 to 10.60 MiB
_READER_SHARE = 4


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one sweep: success probability, realized time, diagnostics.

    Instance.evolve(family, gain) makes it: a sweep at dt/dlam = gain * pace(lam).
    """

    P: float
    T: float
    norm_drift: float
    psi: np.ndarray  # final amplitudes in the computational basis, up to a global sign
    samples: np.ndarray | None = None  # rows of SAMPLE_COLUMNS
    curvature_route: str | None = None  # feedback only: Instance.curvature_route


@dataclass(frozen=True)
class BackactionWindow:
    delta_min: float
    omega_lc: float
    gamma_lc: float

    def __post_init__(self):
        if not (0 < self.delta_min < math.inf and 0 < self.omega_lc < math.inf
                and 0 <= self.gamma_lc < math.inf):
            raise ValueError("need finite delta_min > 0, omega_lc > 0, gamma_lc >= 0")


@dataclass(frozen=True)
class SchedulePlan:
    """Precomputed lam grid, midpoint energies and frame overlaps.

    Building the plan costs one eigendecomposition of the cell midpoints,
    a chunk of ham.spectrum_chunks at a time; every run on the instance
    (any controller, any T) then reuses it, which is what makes the
    time-to-target scans affordable.
    frame_maps[s] = V_{s+1}^T V_s carries eigenframe coefficients from cell
    s into cell s + 1; the last one is V_{cells-1} itself, back to the
    computational basis.  With them propagate() steps many total times in
    one pass.  The midpoint eigenvectors themselves are not kept: c0 holds
    psi0 in the first cell's eigenbasis, which is all a sweep needs to
    start.

    lams, mids, widths, psi0 and ground_index are ready when the plan is.
    mid_energies, frame_maps and c0 come from the midpoint
    eigendecomposition (see build_schedule); every read raises again an
    exception that either thread raised.
    """

    pair: ham.HamiltonianPair
    lams: np.ndarray  # nodes, descending, lams[0] = 1, lams[-1] = 0
    mids: np.ndarray
    widths: np.ndarray  # positive cell widths in lam
    psi0: np.ndarray  # ground state of H(1), with the sign eigh gives it
    ground_index: int
    _frames: _MidpointFrames = field(repr=False, compare=False)

    @property
    def cells(self) -> int:
        return self.widths.size

    @property
    def mid_energies(self) -> np.ndarray:
        """(cells, dim) eigenvalues at the midpoints."""
        return self._frames.result()[0]

    @property
    def frame_maps(self) -> np.ndarray:
        """(cells, dim, dim) real overlaps V_{s+1}^T V_s, then V_{cells-1}."""
        return self._frames.result()[1]

    @property
    def c0(self) -> np.ndarray:
        """psi0 in the eigenbasis of cell 0."""
        return self._frames.result()[2]


class _MidpointFrames:
    """A plan's midpoint eigendecomposition: a queue of chunks that two threads share.

    The chunks are ham.chunk_slices of the midpoints.  work(), the plan's
    worker, takes them from the front, if the plan has one (from n = 3 up,
    see build_schedule).  result(), the plan's reader, takes those left
    from the back, each in pieces of a quarter chunk, so that the caller's
    thread holds only a quarter chunk of decompositions; it then waits for
    the chunk in flight and fills the map
    across each edge between chunks, and frame_maps[-1], from copies of the
    chunks' first and last eigenvectors.  Each matrix is decomposed by its
    own LAPACK call and each map computed by the same matmul on either
    thread, so every output is bitwise that of one thread.  An exception on
    either thread stops the taking, and every read raises it again.
    """

    def __init__(self, pair: ham.HamiltonianPair, mids: np.ndarray, psi0: np.ndarray):
        self.pair, self.mids, self.psi0 = pair, mids, psi0
        # allocated here and filled by both threads, which then allocate and free only their
        # chunks (glibc gives each thread a malloc arena; plan arrays allocated in the worker's
        # raised perfbench's ttt_scaling peak RSS by 6 MiB in some runs)
        self.energies = np.empty((mids.size, pair.dim))
        self.frame_maps = np.empty((mids.size, pair.dim, pair.dim))
        self._chunks = list(ham.chunk_slices(mids.size, pair.dim))
        self._queue = deque(self._chunks)
        self._edges = {}  # chunk start -> copies of its first and its last eigenvectors
        self._state = threading.Condition()
        self._in_flight = 0
        self._error = None
        self._joined = False

    def _take(self, front: bool) -> slice | None:
        """The next chunk from one end; None when none is left or a chunk has failed."""
        with self._state:
            if self._error is not None or not self._queue:
                return None
            self._in_flight += 1
            return self._queue.popleft() if front else self._queue.pop()

    def _decompose(self, chunk: slice, share: int) -> None:
        """Fill the chunk's energies and inner maps, in pieces of 1 / share chunk, in order."""
        try:
            last = None
            for part in ham.chunk_slices(chunk.stop - chunk.start, self.pair.dim, share):
                piece = slice(chunk.start + part.start, chunk.start + part.stop)
                mid = ham.spectrum_at(self.pair, self.mids[piece])
                a, b, V = piece.start, piece.stop, mid.states
                self.energies[piece] = mid.energies
                if a == 0:
                    self._c0 = V[0].T @ self.psi0
                if last is None:
                    first = V[:1].copy()  # a view would keep the whole stack alive
                else:
                    np.matmul(V[:1].transpose(0, 2, 1), last, out=self.frame_maps[a - 1 : a])
                np.matmul(V[1:].transpose(0, 2, 1), V[:-1], out=self.frame_maps[a : b - 1])
                last = V[-1:]
            self._edges[chunk.start] = first, last.copy()
        except Exception as err:  # raised again by every read
            with self._state:
                self._error = self._error or err
        finally:
            with self._state:
                self._in_flight -= 1
                self._state.notify_all()

    def work(self) -> None:
        """Decompose whole chunks from the front until none is left."""
        while (chunk := self._take(front=True)) is not None:
            self._decompose(chunk, 1)

    def result(self):
        """(mid_energies, frame_maps, c0), once every chunk is in and joined to the next."""
        if not self._joined:
            while (chunk := self._take(front=False)) is not None:
                self._decompose(chunk, _READER_SHARE)
            with self._state:
                self._state.wait_for(lambda: self._in_flight == 0)
            if self._error is None:
                edges = [self._edges.pop(chunk.start) for chunk in self._chunks]
                for chunk, (first, _), (_, last) in zip(self._chunks[1:], edges[1:], edges):
                    a = chunk.start
                    np.matmul(first.transpose(0, 2, 1), last, out=self.frame_maps[a - 1 : a])
                self.frame_maps[-1] = edges[-1][1][0]
                self._joined = True
        if self._error is not None:
            raise self._error
        return self.energies, self.frame_maps, self._c0


class _EigenWorker:
    """One worker thread, made by the first submit; see eigen_worker."""

    def __init__(self):
        self._pool = None

    def submit(self, fn, *args):
        """fn(*args) on the worker, as a concurrent.futures Future; the first call makes it."""
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aqcsim-eigen")
        return self._pool.submit(fn, *args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def eigen_worker() -> _EigenWorker:
    """A one-worker executor for a caller to own, as a context, for its eigen work.

    Its ThreadPoolExecutor is made by the first submit, and concurrent.futures
    imported there: a call that queues nothing (an n = 2 plan, a linear scan,
    Instance(pair).evolve) makes no thread and loads neither concurrent.futures
    nor logging.  The context's exit joins the thread, if one was made; an
    exception raised in the `with` body propagates.
    """
    return _EigenWorker()


def _ground_rotation_cells(pair: ham.HamiltonianPair):
    """Bisect [1, 0] until the ground state turns <= _ROT_MAX per cell.

    Breadth first: the _BASE_CELLS + 1 base nodes, then each level's new
    midpoints, take one stacked eigendecomposition each.  Returns
    (a, b, rotation) per cell, in descending lam.
    """

    def grounds(lams) -> dict:
        states = ham.spectrum_at(pair, np.asarray(lams)).states
        return dict(zip(lams, states[..., 0]))

    base = np.linspace(1.0, 0.0, _BASE_CELLS + 1).tolist()
    ground = grounds(base)
    level = list(zip(base[:-1], base[1:]))
    cells = []
    while level:
        split = []
        for a, b in level:
            overlap = min(1.0, abs(float(ground[a] @ ground[b])))
            rot = math.acos(overlap)
            if rot > _ROT_MAX and (a - b) > _MIN_CELL:
                split.append((a, b, 0.5 * (a + b)))
            else:
                cells.append((a, b, rot))
        if split:
            ground.update(grounds([m for _, _, m in split]))
        level = [half for a, b, m in split for half in ((a, m), (m, b))]
    cells.sort(key=lambda cell: -cell[0])
    return cells


def _checked_ground(pair: ham.HamiltonianPair, steps: int) -> int:
    """The problem's ground index; ValueError for steps < 1, then DegenerateGroundError."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return ham.problem_ground_index(pair)


def build_schedule(
    pair: ham.HamiltonianPair, steps: int = DEFAULT_STEPS, executor=None
) -> SchedulePlan:
    """Lay out the lam grid and cache the midpoint eigensystems.

    The grid, psi0 and ground_index are computed here, on the caller's
    thread, and so are their errors (_checked_ground, before the bisection:
    on a tied pair it can split into 10^5 cells).  The midpoint
    eigendecomposition is queued on `executor` only from n = 3 (dim 8) up,
    and only if the caller passes one (an executor it owns, such as an
    eigen_worker): at dim 4 a thread handover costs more than it overlaps.
    The first read of mid_energies, frame_maps or c0 decomposes the chunks
    not yet taken (every chunk of an n = 2 plan, or of a plan built without
    an executor) and waits only for the one in flight.  Plans that share a
    one-worker executor are decomposed one after another.
    """
    ground_index = _checked_ground(pair, steps)
    cells = _ground_rotation_cells(pair)
    steps = max(steps, len(cells))
    tops, bottoms, rots = map(np.array, zip(*cells))
    widths = tops - bottoms
    total_rot = float(rots.sum())
    if total_rot > 0:
        weights = (1.0 - _ROT_WEIGHT) * widths + _ROT_WEIGHT * rots / total_rot
    else:
        weights = widths.copy()
    alloc = np.maximum(1, np.round(steps * weights / weights.sum()).astype(int))
    while alloc.sum() > steps:  # steps >= len(cells), so the largest cell holds more than 1
        alloc[np.argmax(alloc)] -= 1
    while alloc.sum() < steps:
        alloc[np.argmax(weights / alloc)] += 1

    lams = _nodes(tops, bottoms, alloc)
    mids = 0.5 * (lams[:-1] + lams[1:])
    cell_widths = lams[:-1] - lams[1:]

    psi0 = ham.spectrum_at(pair, 1.0).states[:, 0].astype(complex)
    frames = _MidpointFrames(pair, mids, psi0)
    if executor is not None and pair.dim >= _THREAD_MIN_DIM:
        executor.submit(frames.work)
    return SchedulePlan(
        pair=pair,
        lams=lams,
        mids=mids,
        widths=cell_widths,
        psi0=psi0,
        ground_index=ground_index,
        _frames=frames,
    )


def _nodes(tops, bottoms, alloc) -> np.ndarray:
    """1.0, then np.linspace(a, b, m + 1)[1:] of each cell (a, b), m = alloc: op for op, at once."""
    ends = np.cumsum(alloc)  # cell k's last node, set to b itself as linspace sets it
    i = np.arange(1, ends[-1] + 1) - np.repeat(ends - alloc, alloc)  # node i = 1..m of its cell
    lams = np.r_[1.0, i * np.repeat((bottoms - tops) / alloc, alloc) + np.repeat(tops, alloc)]
    lams[ends], lams[-1] = bottoms, 0.0
    return lams


def initial_coefficients(plan: SchedulePlan, columns: int = 1) -> np.ndarray:
    """psi0 in the eigenbasis of the first cell, repeated over `columns` sweeps."""
    return np.repeat(plan.c0[:, None], columns, axis=1)


def _phase_cells(dim: int, columns: int) -> int:
    """Cells per chunk of propagate: _PHASE_CHUNK, fewer where their buffers pass _PHASE_BYTES."""
    return max(1, min(_PHASE_CHUNK, _PHASE_BYTES // (40 * dim * max(columns, 1))))


def propagate(plan: SchedulePlan, dts, coeffs, start: int = 0, stop: int | None = None):
    """Step eigenframe coefficients of a block of sweeps through cells [start, stop).

    coeffs is (dim, nT): column j holds the amplitudes of sweep j in the
    eigenbasis of cell `start`, and dts is (cells, nT), each column the
    per-cell times of its sweep.  Each cell applies
    c <- O_s (exp(-i w_s dt_s) * c), one matmul shared by every column.
    Returns the coefficients in the eigenbasis of cell `stop` (the
    computational basis when stop == cells) and each column's largest norm
    drift over the steps; a non-finite state reports drift NaN.  A finite
    step whose phase w * dt overflows raises ValueError naming its sweep's
    total time; a non-finite step is not refused, and shows as drift NaN.
    """
    stop = plan.cells if stop is None else stop
    requested = dts[start:stop]
    dt_max = float(np.max(requested, initial=0.0, where=np.isfinite(requested)))
    w_max = float(np.abs(plan.mid_energies[start:stop]).max(initial=0.0))
    if not math.isfinite(w_max * dt_max):
        # a Python sum overflows to inf without numpy's RuntimeWarning
        T = sum(dts[:, np.argwhere(requested == dt_max)[0, 1]].tolist())
        raise ValueError(
            f"the sweep of total time T = {T:.3g} overflows its phases: "
            f"max |E| {w_max:.3g} times max dt {dt_max:.3g}"
        )
    c = np.ascontiguousarray(coeffs, dtype=complex)
    drift = np.zeros(c.shape[1])
    scaled = np.empty_like(c)
    # frame maps are real: each step is one real matmul on the interleaved (re, im) view
    scaled_flat = scaled.view(float)
    # one chunk's buffers, reused by every chunk: c after each step, its phases, their
    # angles, and the squared norms of the (re, im) halves and the norms' drift
    chunk = _phase_cells(*c.shape)
    states, phases = np.empty((2, min(chunk, stop - start), *c.shape), complex)
    rows = list(phases), list(states), list(states.view(float))  # per-cell views, every chunk
    angles = np.empty(states.shape)
    halves = np.empty((len(states), 2 * c.shape[1]))
    norms = np.empty((len(states), c.shape[1]))
    multiply, matmul = np.multiply, np.matmul
    for a in range(start, stop, chunk):
        b = min(a + chunk, stop)
        theta, flat = angles[: b - a], states[: b - a].view(float)
        # exp(-i w dt) as cos + i sin of (-w) dt, cheaper than a complex exp
        multiply(np.negative(plan.mid_energies[a:b, :, None]), dts[a:b, None, :], theta)
        np.cos(theta, phases[: b - a].real)
        np.sin(theta, phases[: b - a].imag)
        for phase, state, state_flat, frame_map in zip(*rows, plan.frame_maps[a:b]):
            multiply(c, phase, scaled)
            matmul(frame_map, scaled_flat, state_flat)
            c = state
        norm2, off = halves[: b - a], norms[: b - a]
        np.einsum("kij,kij->kj", flat, flat, out=norm2)
        np.add(norm2[:, 0::2], norm2[:, 1::2], out=off)
        np.sqrt(off, out=off)
        np.subtract(off, 1.0, out=off)
        np.abs(off, out=off)
        np.maximum(drift, off.max(axis=0), out=drift)
    return c.copy(), drift


class Instance:
    """One problem instance's precomputations, shared by every sweep on it.

    Holds the plan, the curvature source (a replayed (lam, c2) profile, or
    spectral.curvature_profile on the plan's nodes and midpoints -- the
    level flow, or its diagonalization fallback near a level collision --
    computed on first use, so linear sweeps never need it), the resolved
    pace floor and the unit-gain cell times unit_dts.  Every sweep follows
    dt/dlam = gain * pace(lam); unit_sweep gives a family's cells at gain 1
    (widths for "linear", unit_dts for "feedback") and their total time.
    run(batches) steps any mix of families and realized times together in
    one pass; evolve(family, gain) runs one sweep with its diagnostics.

    executor, a one-worker executor the caller owns, takes the instance's
    eigen work (see build_schedule), and with it scan=True queues T_ad's
    ground scan there too, ahead of the plan's frames; otherwise T_ad scans
    on the caller when first read.  A refused pair or steps queues nothing.
    """

    def __init__(
        self,
        pair: ham.HamiltonianPair,
        steps: int = DEFAULT_STEPS,
        curvature_floor: float | None = None,
        *,
        profile: tuple | None = None,
        executor=None,
        scan: bool = False,
    ):
        if curvature_floor is not None:  # else resolved on first use
            self.floor = ham.checked_positive("curvature_floor", curvature_floor)
        self.pair = pair
        _checked_ground(pair, steps)  # before the scan is queued
        self._scan = executor.submit(_ground_scan, pair) if scan and executor is not None else None
        self.plan = build_schedule(pair, steps, executor)
        self.profile = profile

    @cached_property
    def _curvature(self):
        """(|c2| at the plan's nodes, then at its midpoints; curvature_route)."""
        lams = np.concatenate([self.plan.lams, self.plan.mids])
        if self.profile is None:
            c2, _, route = spectral.curvature_profile(self.pair, lams)
            return np.abs(c2), route
        lam_tab, c2_tab = self.profile
        # np.interp wants ascending abscissae; profiles are stored descending.
        c2 = np.interp(lams[::-1], lam_tab[::-1], c2_tab[::-1])[::-1]
        return np.abs(c2), "replay"

    @property
    def curvature_route(self) -> str:
        """Where |c2| came from: "replay", or the route curvature_profile took."""
        return self._curvature[1]

    @cached_property
    def floor(self) -> float:
        """The pace floor: as given, else DEFAULT_FLOOR_FRACTION of the |c2| peak."""
        return DEFAULT_FLOOR_FRACTION * float(self._curvature[0].max())

    @cached_property
    def unit_dts(self) -> np.ndarray:
        """Per-cell times at gain 1, by Simpson's rule on the pace max(|c2|, floor)."""
        unit_pace = np.maximum(self._curvature[0], self.floor)
        nodes, mids = unit_pace[: self.plan.lams.size], unit_pace[self.plan.lams.size :]
        return (self.plan.widths / 6.0) * (nodes[:-1] + 4.0 * mids + nodes[1:])

    @cached_property
    def unit_time(self) -> float:
        return float(self.unit_dts.sum())

    @cached_property
    def T_ad(self) -> float:
        return adiabatic_time(self.pair, None if self._scan is None else self._scan.result())

    def unit_sweep(self, family: str) -> tuple[np.ndarray, float]:
        """(cell times, total time) of the family's sweep at gain 1; ValueError if unknown."""
        if family == "linear":
            return self.plan.widths, 1.0
        if family == "feedback":
            return self.unit_dts, self.unit_time
        raise ValueError(f"unknown controller family {family!r}")

    def ground_population(self, c: np.ndarray) -> np.ndarray:
        """P of computational-basis amplitudes c, (dim,) or (dim, columns): the one P rule."""
        return np.abs(c[self.plan.ground_index]) ** 2

    def run(self, batches) -> list[np.ndarray]:
        """P after each (family, T) batch of sweeps of realized total times T, in one pass.

        batches is a sequence of (family, T) pairs, T a scalar or an array
        of total times.  Each sweep is one column of a single (cells,
        columns) block, the family's unit_sweep cells times T over its unit
        time.  A T that is not finite and positive, or an unknown family, is
        refused before anything is propagated; returns one 1-D P array per batch.
        """
        Ts = [ham.checked_positive("T", np.asarray(T, dtype=float)).ravel() for _, T in batches]
        cuts = list(accumulate((T.size for T in Ts), initial=0))
        dts = np.empty((self.plan.cells, cuts[-1]))
        for (family, _), T, a, b in zip(batches, Ts, cuts, cuts[1:]):
            cells, time = self.unit_sweep(family)
            np.multiply.outer(cells, T / time, out=dts[:, a:b])
        c, _ = propagate(self.plan, dts, initial_coefficients(self.plan, cuts[-1]))
        P = self.ground_population(c)
        return [P[a:b] for a, b in zip(cuts, cuts[1:])]

    def evolve(self, family: str, gain: float, *, sample_stride: int = 0) -> RunRecord:
        """Run one sweep from lam = 1 to 0 at dt/dlam = gain * pace(lam) and score it.

        gain is T_total for "linear" and k for "feedback".  sample_stride > 0
        records a trajectory row every that-many grid nodes (plus the
        endpoints): lam, t, instantaneous ground-state population, gap, and
        |c2| recomputed from the spectrum at the node.  A gain that is not
        finite and positive, a negative stride or an unknown family is
        refused before anything is propagated.
        """
        ham.checked_positive("gain", gain)
        if sample_stride < 0:
            raise ValueError(f"sample_stride must be >= 0, got {sample_stride}")
        plan = self.plan
        dts = gain * self.unit_sweep(family)[0]

        # the trajectory's rows, or with none one stretch over every cell; between cells the
        # coefficients live in the next cell's eigenbasis, decomposed a chunk at a time, and
        # after the last cell in the computational one
        marks = np.array([*range(0, plan.cells, sample_stride or plan.cells), plan.cells])
        chunks = ham.spectrum_chunks(self.pair, plan.mids[marks[1:-1]])
        bases = chain.from_iterable(es.states for _, es in chunks)
        c, drift, psis = initial_coefficients(plan), np.zeros(1), [plan.psi0]
        for (a, b), V in zip_longest(zip(marks[:-1], marks[1:]), bases):
            c, d = propagate(plan, dts[:, None], c, a, b)
            drift = np.maximum(drift, d)
            psis.append(c[:, 0] if V is None else V @ c[:, 0])
        samples = None
        if sample_stride > 0:
            t_cum = np.concatenate([[0.0], np.cumsum(dts)])
            samples = _sample_rows(self.pair, plan.lams[marks], t_cum[marks], psis)

        return RunRecord(
            P=float(self.ground_population(c)[0]),
            T=float(dts.sum()),
            norm_drift=float(drift[0]),
            psi=c[:, 0],
            samples=samples,
            curvature_route=self.curvature_route if family == "feedback" else None,
        )


def _sample_rows(pair, lams, times, psis) -> np.ndarray:
    """SAMPLE_COLUMNS rows at nodes lams, from their diagonalization chunk by chunk."""
    rows = np.empty((lams.size, len(SAMPLE_COLUMNS)))
    rows[:, 0], rows[:, 1] = lams, times
    for part, es in ham.spectrum_chunks(pair, lams):
        c2_full, _ = spectral.curvature_from_spectrum(es, pair.bias)
        states = zip(es.states, psis[part])
        rows[part, 2] = [abs(V[:, 0] @ psi.conj()) ** 2 for V, psi in states]
        rows[part, 3] = es.gap()
        rows[part, 4] = np.abs(c2_full)
    return rows


def _bracket(lams: np.ndarray, i: int):
    """The scan cells on either side of grid point i."""
    return lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)]


def _ground_scan(pair: ham.HamiltonianPair):
    """The _SCAN_POINTS lam grid, max_k |<0|H_b|k>| and the gap on it, chunk by chunk."""
    lams = np.linspace(0.0, 1.0, _SCAN_POINTS)
    peaks, gaps = np.empty(lams.size), np.empty(lams.size)
    for part, es in ham.spectrum_chunks(pair, lams):
        np.abs(es.ground_couplings(pair.bias)).max(axis=1, out=peaks[part])
        gaps[part] = es.gap()
    return lams, peaks, gaps


def _refine_min_gap(pair: ham.HamiltonianPair, lams: np.ndarray, gaps: np.ndarray):
    def gap(lam: float) -> float:
        w = np.linalg.eigvalsh(ham.total_hamiltonian(pair, lam))
        return float(w[1] - w[0])

    lo, hi = _bracket(lams, int(np.argmin(gaps)))
    best_lam, best_gap = map(float, minimize_scalar_bounded(gap, (lo, hi), xatol=1e-10))
    # The bounded minimizer cannot land exactly on a boundary; check them too.
    for lam_edge in (lo, hi):
        g = gap(lam_edge)
        if g < best_gap:
            best_lam, best_gap = float(lam_edge), g
    return best_gap, best_lam


def min_gap(pair: ham.HamiltonianPair):
    """Minimum of E_1 - E_0 over lam in [0, 1] and its location.

    Dense scan at _SCAN_POINTS points, then bounded Brent refinement (golden-section
    and parabolic steps) in the bracketing cells (boundary minima included --
    the single-qubit model has its minimum exactly at lam = 0).
    """
    lams, _, gaps = _ground_scan(pair)
    return _refine_min_gap(pair, lams, gaps)


def adiabatic_time(pair: ham.HamiltonianPair, scan: tuple | None = None) -> float:
    """max over excited levels and lam of |<j|H_b|0>|, over the squared minimum gap.

    The timescale beyond which a sweep is effectively adiabatic; linear runs
    at T >> this value reach P ~ 1.  One scan of the lam grid serves both
    the coupling peak and the minimum gap; scan, when given, is that scan's
    _ground_scan(pair), taken ahead (on an eigen worker), and only the two
    Brent refinements run here.  Raises SimulationError when the quotient
    is not a finite positive number (a gap whose square overflows or
    underflows).
    """
    lams, values, gaps = _ground_scan(pair) if scan is None else scan

    def coupling(lam: float) -> float:
        m = ham.spectrum_at(pair, lam).ground_couplings(pair.bias)
        return float(np.abs(m).max())

    i = int(np.argmax(values))
    lo, hi = _bracket(lams, i)
    _, fun = minimize_scalar_bounded(lambda lam: -coupling(lam), (lo, hi), xatol=1e-10)
    peak = float(max(values[i], -float(fun)))
    gap_min, _ = _refine_min_gap(pair, lams, gaps)
    try:
        t_ad = peak / gap_min**2
    except (OverflowError, ZeroDivisionError):
        t_ad = math.nan
    if not 0 < t_ad < math.inf:
        raise SimulationError(
            f"no finite adiabatic time: peak coupling {peak:.3g} over the minimum gap "
            f"{gap_min:.3g} squared"
        )
    return t_ad


def backaction_window_ok(w: BackactionWindow) -> bool:
    """True when the minimum gap sits outside the tank's linewidth window."""
    return (
        w.delta_min > w.omega_lc + w.gamma_lc or w.delta_min < w.omega_lc - w.gamma_lc
    )
