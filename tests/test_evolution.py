"""Propagator, pace laws, timescales, and limit behavior."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from aqcsim import evolution as evo
from aqcsim import hamiltonians as ham
from aqcsim import spectral
from aqcsim.errors import DegenerateGroundError, SimulationError


def one_qubit_pair(eps=3.0, Z=5.0):
    return ham.make_pair(1, np.array([eps]), Z=Z)


# ---------------------------------------------------------------- controllers


def test_controller_validation(monkeypatch):
    def no_pass(*args):
        raise AssertionError("nothing may be propagated")

    inst = evo.Instance(ham.pair_from_seed(2, 3), 64)
    monkeypatch.setattr(evo, "propagate", no_pass)
    for family in ("linear", "feedback"):
        for gain in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gain"):
                inst.evolve(family, gain)
    with pytest.raises(ValueError, match="unknown controller family 'warp'"):
        inst.evolve("warp", 1.0)


def test_run_refuses_a_total_time_that_is_not_finite_and_positive(monkeypatch):
    def no_pass(*args):
        raise AssertionError("nothing may be propagated")

    inst = evo.Instance(ham.pair_from_seed(2, 3), 64)
    monkeypatch.setattr(evo, "propagate", no_pass)
    for family in ("linear", "feedback"):
        for T in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^T must be finite and positive, got"):
                inst.run([(family, T)])
            # one bad entry of an array, in a later batch than a good one
            with pytest.raises(ValueError, match="^T must be finite and positive, got"):
                inst.run([(family, 1.0), (family, [2.0, T])])


# ------------------------------------------------------------------ schedules


def test_schedule_grid_contracts():
    pair = ham.pair_from_seed(2, 5)
    plan = evo.build_schedule(pair, steps=256)
    assert plan.lams[0] == 1.0 and plan.lams[-1] == 0.0
    assert np.all(np.diff(plan.lams) < 0)
    assert plan.cells >= 256
    np.testing.assert_allclose(plan.widths, -np.diff(plan.lams), atol=1e-15)
    np.testing.assert_allclose(
        plan.mids, (plan.lams[:-1] + plan.lams[1:]) / 2, atol=1e-15
    )
    # the start state is the exact ground state of the full H at lam = 1
    H1 = ham.total_hamiltonian(pair, 1.0)
    E0 = ham.spectrum_at(pair, 1.0).energies[0]
    np.testing.assert_allclose(H1 @ plan.psi0, E0 * plan.psi0, atol=1e-9)


def test_schedule_refines_near_small_gaps():
    # cells concentrate where the ground state rotates fastest
    pair = ham.pair_from_seed(2, 1)  # min gap 0.12 near lam ~ 0.02
    plan = evo.build_schedule(pair, steps=256)
    gmin, lam_star = evo.min_gap(pair)
    near = np.abs(plan.mids - lam_star) < 0.05
    density_near = near.sum() / 0.1
    density_far = (~near).sum() / 0.9
    assert density_near > 2 * density_far


def _linspace_nodes(tops, bottoms, alloc):
    """Reference layout: one np.linspace per cell, as the grid was first built."""
    nodes = [1.0]
    for a, b, m in zip(tops.tolist(), bottoms.tolist(), alloc.tolist()):
        nodes.extend(np.linspace(a, b, m + 1)[1:])
    lams = np.asarray(nodes)
    lams[-1] = 0.0
    return lams


def test_vectorized_node_layout_equals_a_linspace_per_cell_bitwise():
    rng = np.random.default_rng(23)
    for cells in (1, 7, 300, 900):
        # widths from 1e-7 up, cut from 1 down to 0 like the bisection's cells
        widths = 10.0 ** rng.uniform(-7, -1, cells)
        bottoms = 1.0 - np.cumsum(widths / widths.sum())
        bottoms[-1] = 0.0
        tops = np.concatenate([[1.0], bottoms[:-1]])
        alloc = rng.integers(1, 51, cells)
        got = evo._nodes(tops, bottoms, alloc)
        assert got.tobytes() == _linspace_nodes(tops, bottoms, alloc).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plan_grids_equal_a_linspace_per_cell_bitwise(monkeypatch, n):
    layouts, real = [], evo._nodes

    def record(*args):
        layouts.append((args, real(*args)))
        return layouts[-1][1]

    for seed in (1, 2, 3):
        pair = ham.pair_from_seed(n, seed)
        for steps in (64, 1024, 2048):
            layouts.clear()
            with monkeypatch.context() as patch:
                patch.setattr(evo, "_nodes", record)
                plan = evo.build_schedule(pair, steps)
            ((args, lams),) = layouts
            assert plan.lams is lams
            assert lams.tobytes() == _linspace_nodes(*args).tobytes()


def _depth_first_rotation_cells(pair):
    """Reference bisection: one single-lam eigendecomposition per new node."""
    vec_cache = {}

    def ground(lam):
        v = vec_cache.get(lam)
        if v is None:
            v = ham.spectrum_at(pair, lam).states[:, 0]
            vec_cache[lam] = v
        return v

    def rotation(a, b):
        overlap = min(1.0, abs(float(ground(a) @ ground(b))))
        return math.acos(overlap)

    base = np.linspace(1.0, 0.0, evo._BASE_CELLS + 1)
    stack = [(base[i], base[i + 1]) for i in range(evo._BASE_CELLS)]
    cells = []
    while stack:
        a, b = stack.pop()
        rot = rotation(a, b)
        if rot > evo._ROT_MAX and (a - b) > evo._MIN_CELL:
            m = 0.5 * (a + b)
            stack.append((a, m))
            stack.append((m, b))
        else:
            cells.append((a, b, rot))
    cells.sort(key=lambda cell: -cell[0])
    return cells


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_level_batched_rotation_bisection_matches_depth_first(monkeypatch, n):
    for seed in (1, 7000):
        pair = ham.pair_from_seed(n, seed)
        cells = evo._ground_rotation_cells(pair)
        assert cells == _depth_first_rotation_cells(pair)
        plan = evo.build_schedule(pair, steps=512)
        with monkeypatch.context() as m:
            m.setattr(evo, "_ground_rotation_cells", _depth_first_rotation_cells)
            want = evo.build_schedule(pair, steps=512)
        for field in ("lams", "mids", "widths", "mid_energies", "frame_maps", "c0"):
            np.testing.assert_array_equal(getattr(plan, field), getattr(want, field))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plan_frames_equal_a_serial_reference_bitwise(n):
    for seed in (1, 5, 7000):
        pair = ham.pair_from_seed(n, seed)
        plan = evo.build_schedule(pair, steps=256)
        mid = ham.spectrum_at(pair, plan.mids)
        V = mid.states
        frame_maps = np.concatenate([V[1:].transpose(0, 2, 1) @ V[:-1], V[-1:]])
        assert np.array_equal(plan.mid_energies, mid.energies)
        assert np.array_equal(plan.frame_maps, frame_maps)
        assert np.array_equal(plan.c0, V[0].T @ plan.psi0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plan_midpoints_are_decomposed_off_the_caller_thread_from_n_3(monkeypatch, n):
    calls = []
    real = ham.spectrum_at

    def recording(pair, lam):
        calls.append((threading.get_ident(), np.array(lam)))
        return real(pair, lam)

    monkeypatch.setattr(ham, "spectrum_at", recording)
    # 300 cells: one chunk at n = 2 and 3, two of 150 at n = 4, five of 60 at n = 5
    with ThreadPoolExecutor(max_workers=1) as pool:
        plan = evo.build_schedule(ham.pair_from_seed(n, 3), steps=300, executor=pool)
        pool.submit(lambda: None).result(timeout=10)  # the worker takes every chunk first
    plan.frame_maps
    assert plan.cells == 300
    # psi0's single lam comes last on the caller; every call after it is a midpoint chunk
    (psi0_call,) = [i for i, (_, lam) in enumerate(calls) if lam.ndim == 0]
    chunks = calls[psi0_call + 1 :]
    want = {2: [300], 3: [300], 4: [150] * 2, 5: [60] * 5}[n]
    assert [lam.size for _, lam in chunks] == want
    assert np.array_equal(np.concatenate([lam for _, lam in chunks]), plan.mids)
    (thread,) = {ident for ident, _ in chunks}
    assert (thread != threading.get_ident()) == (n >= 3)


@pytest.mark.parametrize("n, count", [(4, 300), (4, 257), (5, 150), (5, 129)],
                         ids=["n4-partial", "n4-one-over", "n5-partial", "n5-one-over"])
def test_chunked_midpoint_frames_equal_one_whole_stack_bitwise(n, count):
    # at most 256 (n = 4) and 64 (n = 5) matrices a chunk; the count not a multiple of it,
    # or one over a multiple, where fixed-size chunks would leave one matrix alone
    pair = ham.pair_from_seed(n, 2)
    mids = np.linspace(1.0, 0.0, count + 2)[1:-1]
    psi0 = ham.spectrum_at(pair, 1.0).states[:, 0].astype(complex)
    assert ham.chunk_size(pair.dim) < count
    frames = evo._MidpointFrames(pair, mids, psi0)
    frames.work()
    energies, frame_maps, c0 = frames.result()
    whole = ham.spectrum_at(pair, mids)
    V = whole.states
    assert np.array_equal(energies, whole.energies)
    assert np.array_equal(frame_maps, np.concatenate([V[1:].transpose(0, 2, 1) @ V[:-1], V[-1:]]))
    assert np.array_equal(c0, V[0].T @ psi0)


def _one_thread_frames(plan):
    """The plan's midpoint energies, frame maps and c0 from one whole stack on this thread."""
    mid = ham.spectrum_at(plan.pair, plan.mids)
    V = mid.states
    frame_maps = np.concatenate([V[1:].transpose(0, 2, 1) @ V[:-1], V[-1:]])
    return mid.energies, frame_maps, V[0].T @ plan.psi0


def _plan_frames(plan):
    return plan.mid_energies, plan.frame_maps, plan.c0


# multi-chunk plans: three chunks of 700 at n = 3, three of 200 at n = 4, four of 50 at n = 5
_MULTI_CHUNK_STEPS = {3: 2100, 4: 600, 5: 200}


@pytest.fixture
def waiting_worker():
    """(executor, gate): a one-thread executor whose thread waits until gate is set."""
    gate = threading.Event()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="waiting-worker") as pool:
        pool.submit(gate.wait, 10)
        yield pool, gate
        gate.set()


def _recorded_midpoint_calls(monkeypatch, on_call=lambda: None) -> list:
    """(thread ident, matrices) of every ham.spectrum_at call from now on, in order."""
    calls, real = [], ham.spectrum_at

    def recording(pair, lam):
        calls.append((threading.get_ident(), np.size(lam)))
        on_call()
        return real(pair, lam)

    monkeypatch.setattr(ham, "spectrum_at", recording)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_read_while_the_worker_waits_decomposes_every_chunk_on_the_caller(
    monkeypatch, waiting_worker, n
):
    pool, gate = waiting_worker
    plan = evo.build_schedule(ham.pair_from_seed(n, 2), _MULTI_CHUNK_STEPS[n], pool)
    calls = _recorded_midpoint_calls(monkeypatch)
    got = _plan_frames(plan)
    monkeypatch.undo()
    chunks = list(ham.chunk_slices(plan.cells, plan.pair.dim))
    assert len(chunks) > 2
    # every chunk from the back, each in pieces of at most a quarter chunk (16 matrices at n = 5)
    quarter = max(3, ham.chunk_size(plan.pair.dim) // 4)
    want = [p.stop - p.start for c in chunks[::-1]
            for p in ham.chunk_slices(c.stop - c.start, plan.pair.dim, evo._READER_SHARE)]
    assert [size for _, size in calls] == want
    assert max(want) <= quarter < chunks[0].stop
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    for array, expected in zip(got, _one_thread_frames(plan)):
        assert array.tobytes() == expected.tobytes()
    gate.set()
    pool.submit(lambda: None).result(timeout=10)  # the worker found no chunk left
    assert _plan_frames(plan)[1] is got[1]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_worker_released_part_way_shares_the_chunks_with_the_reader(
    monkeypatch, waiting_worker, n
):
    pool, gate = waiting_worker
    plan = evo.build_schedule(ham.pair_from_seed(n, 2), _MULTI_CHUNK_STEPS[n], pool)
    caller, worker_started = threading.get_ident(), threading.Event()

    def release_the_worker():
        # at the reader's first decomposition, let the worker take its first chunk
        if threading.get_ident() != caller:
            worker_started.set()
        elif not gate.is_set():
            gate.set()
            assert worker_started.wait(10)

    calls = _recorded_midpoint_calls(monkeypatch, release_the_worker)
    got = _plan_frames(plan)
    monkeypatch.undo()
    threads = {ident for ident, _ in calls}
    assert caller in threads and len(threads) == 2
    assert sum(size for _, size in calls) == plan.cells
    for array, expected in zip(got, _one_thread_frames(plan)):
        assert array.tobytes() == expected.tobytes()


@pytest.mark.parametrize("failing", ["worker", "caller"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_an_error_in_a_chunk_on_either_thread_is_raised_again_by_every_read(
    monkeypatch, waiting_worker, n, failing
):
    pool, gate = waiting_worker
    plan = evo.build_schedule(ham.pair_from_seed(n, 2), _MULTI_CHUNK_STEPS[n], pool)
    caller = threading.get_ident()

    def fails_on_one_thread():
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise np.linalg.LinAlgError(f"eigh did not converge on the {failing}")

    calls = _recorded_midpoint_calls(monkeypatch, fails_on_one_thread)
    if failing == "worker":
        gate.set()
        pool.submit(lambda: None).result(timeout=10)  # the worker has failed on its first chunk
    for read in ("mid_energies", "frame_maps", "c0", "mid_energies"):
        with pytest.raises(np.linalg.LinAlgError, match=f"on the {failing}"):
            getattr(plan, read)
    gate.set()
    pool.submit(lambda: None).result(timeout=10)
    with pytest.raises(np.linalg.LinAlgError, match=f"on the {failing}"):
        plan.frame_maps
    # the failed chunk stopped the taking: one decomposition, on the failing thread
    (ident, _), = calls
    assert (ident == caller) == (failing == "caller")


def test_plans_read_under_a_short_switch_interval_take_each_chunk_once(monkeypatch):
    # four workers, one a plan, and the reader on two cores, the GIL handed over every 10 us:
    # a chunk taken twice, or never, shows in the counts; a lost update to the in-flight
    # count would leave the reads waiting, so they run on a thread joined with a timeout
    taken, decompose = [], evo._MidpointFrames._decompose

    def counted(frames, chunk, share):
        taken.append((frames.pair.seed, chunk.start))
        return decompose(frames, chunk, share)

    monkeypatch.setattr(evo._MidpointFrames, "_decompose", counted)
    pairs = [ham.pair_from_seed(5, seed) for seed in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExitStack() as stack:
            pools = [stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in pairs]
            plans = [evo.build_schedule(pair, 200, pool) for pair, pool in zip(pairs, pools)]
            reads = []
            reader = threading.Thread(target=lambda: reads.extend(map(_plan_frames, plans)))
            reader.start()
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and len(reads) == len(plans)
    for plan, got in zip(plans, reads):
        starts = [c.start for c in ham.chunk_slices(plan.cells, plan.pair.dim)]
        assert sorted(a for seed, a in taken if seed == plan.pair.seed) == starts
        for array, expected in zip(got, _one_thread_frames(plan)):
            assert array.tobytes() == expected.tobytes()


def _symmetric_pair(n):
    """Every one-qubit sigma_z at weight 1: excited levels tied, which the level equations refuse."""
    eps = np.array([1.0 if j & (j - 1) == 0 else 0.0 for j in range(1, 2**n)])
    return ham.make_pair(n, eps)


@pytest.mark.parametrize("n, per_chunk", [(2, 37), (3, 37), (4, None), (5, None), (5, 3)])
def test_chunked_scans_fallback_and_trajectory_equal_one_whole_stack_bitwise(
    monkeypatch, n, per_chunk
):
    # at most per_chunk matrices a chunk (None: the module's budget) against one whole stack;
    # 2049 fallback points and 257 trajectory rows are one over a multiple of 256 and 64
    pair, symmetric = ham.pair_from_seed(n, 4), _symmetric_pair(n)

    def outputs():
        rec = evo.Instance(pair, 256).evolve("linear", 2.0, sample_stride=1)
        assert rec.samples.shape[0] == 257
        # ascending, so that the last point, alone in a chunk of fixed-size chunks, is
        # not lam = 0, where H(lam) is diagonal and every product exact
        fallback = spectral.curvature_profile(symmetric, np.linspace(0.0, 1.0, 2049))
        assert fallback[2] == "diagonalization"
        return (evo.adiabatic_time(pair), *evo.min_gap(pair), *fallback[:2], rec.samples,
                rec.psi, rec.P, rec.norm_drift)

    with monkeypatch.context() as m:
        if per_chunk is not None:
            m.setattr(ham, "_STACK_BYTES", per_chunk * 16 * pair.dim**2)
        assert ham.chunk_size(pair.dim) < evo._SCAN_POINTS
        chunked = outputs()
    monkeypatch.setattr(ham, "_STACK_BYTES", 1 << 62)
    assert ham.chunk_size(pair.dim) > evo._SCAN_POINTS
    whole = outputs()
    for got, want in zip(chunked, whole):
        assert np.array_equal(got, want)


def test_plan_worker_failure_surfaces_from_the_first_read(monkeypatch, capfd):
    caller = threading.get_ident()
    real = ham.spectrum_at

    def fails_off_the_caller(pair, lam):
        if threading.get_ident() != caller:
            raise np.linalg.LinAlgError("eigh did not converge")
        return real(pair, lam)

    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(ham, "spectrum_at", fails_off_the_caller)
    pair = ham.pair_from_seed(3, 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # the plan's grid is ready; its frames are not
        inst = evo.Instance(pair, steps=128, executor=pool)
        # the worker takes the plan's one chunk (a reader would take it first)
        pool.submit(lambda: None).result(timeout=10)
        for _ in range(2):  # every read re-raises
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                inst.run([("linear", 1.0)])
        inst = evo.Instance(pair, 128, executor=pool)
        pool.submit(lambda: None).result(timeout=10)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            inst.evolve("feedback", 0.1)
    assert hooked == []
    assert capfd.readouterr() == ("", "")


def test_a_plan_without_an_executor_starts_no_thread():
    threads = threading.active_count()
    for n in (3, 4, 5):
        plan = evo.build_schedule(ham.pair_from_seed(n, 1), steps=200)
        assert threading.active_count() == threads
        for got, want in zip(_plan_frames(plan), _one_thread_frames(plan)):
            assert got.tobytes() == want.tobytes()
        evo.Instance(ham.pair_from_seed(n, 2), 64).evolve("feedback", 0.1)
        assert threading.active_count() == threads


def test_plan_argument_errors_raise_on_the_caller_thread_before_any_worker():
    threads = threading.active_count()
    tied = ham.make_pair(3, np.zeros(7))
    for build in (evo.build_schedule, evo.Instance):
        with pytest.raises(DegenerateGroundError, match="tied ground states"):
            build(tied, 64)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            build(ham.pair_from_seed(3, 1), 0)
    assert threading.active_count() == threads


def test_an_instance_it_refuses_queues_no_work_on_its_executor(monkeypatch):
    # a refused pair queues nothing: the caller that owns the executor would otherwise wait
    # for a whole 512-point T_ad scan before it could raise
    queued = []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, *args):
            queued.append(fn)
            return super().submit(fn, *args)

    tied = ham.make_pair(3, np.zeros(7))
    with Recording(max_workers=1) as pool:
        with pytest.raises(DegenerateGroundError, match="tied ground states"):
            evo.Instance(tied, 64, executor=pool, scan=True)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            evo.Instance(ham.pair_from_seed(3, 1), 0, executor=pool, scan=True)
        assert queued == []
        evo.Instance(ham.pair_from_seed(3, 1), 64, executor=pool, scan=True).T_ad
    assert queued[0] is evo._ground_scan and len(queued) == 2


def test_the_ground_state_guard_runs_before_the_rotation_bisection(monkeypatch):
    # tied ground states whose bisection, run first, took 161,564 cells and 42 s
    tied = ham.make_pair(3, np.array([
        -2.7073059950688183e87, 8.823280889232753e131, 2.1954820977704256e201,
        1.3387405515545478e-131, -1.3517621996884554e-171, -3.97034311557689e83,
        -1.0786980335118326e183]))

    def bisect(pair):
        raise AssertionError("the rotation bisection ran on a tied pair")

    monkeypatch.setattr(evo, "_ground_rotation_cells", bisect)
    with pytest.raises(DegenerateGroundError, match="tied ground states"):
        evo.build_schedule(tied, 32)


# ------------------------------------------------------------------- evolving


def _expm_chain(plan, dts):
    """Reference sweep: psi <- expm(-i H(lam_mid) dt) psi, cell by cell."""
    psi = plan.psi0.copy()
    for lam, dt in zip(plan.mids, dts):
        psi = expm(-1j * ham.total_hamiltonian(plan.pair, lam) * dt) @ psi
    return psi


@pytest.mark.parametrize("n", [2, 3])
def test_batched_kernel_matches_expm_chain(n):
    pair = ham.pair_from_seed(n, 11)
    plan = evo.build_schedule(pair, steps=64)
    Ts = np.array([0.3, 2.0, 15.0])
    dts = np.multiply.outer(plan.widths, Ts)
    block, drift = evo.propagate(plan, dts, evo.initial_coefficients(plan, Ts.size))
    assert np.all(drift < 1e-12)
    for j in range(Ts.size):
        np.testing.assert_allclose(block[:, j], _expm_chain(plan, dts[:, j]), atol=1e-12)
        one, one_drift = evo.propagate(plan, dts[:, j : j + 1], evo.initial_coefficients(plan))
        np.testing.assert_allclose(block[:, j], one[:, 0], atol=1e-12)
        assert drift[j] == pytest.approx(one_drift[0], abs=1e-12)


def test_propagate_carries_nothing_between_calls():
    # one plan, called with 1, 17 and 3 columns and then over two stretches as evolve
    # calls it, against the same call on a freshly built plan
    pair = ham.pair_from_seed(3, 8)
    plan = evo.build_schedule(pair, steps=256)
    T = np.geomspace(0.5, 50.0, 17)
    calls = [(T[:1], 0, None), (T, 0, None), (T[5:8], 0, None), (T[:1], 0, 70), (T[:1], 70, 201)]
    for Ts, a, b in calls:
        dts = np.multiply.outer(plan.widths, Ts)
        start = evo.initial_coefficients(plan, Ts.size) if a == 0 else c
        got = evo.propagate(plan, dts, start, a, b)
        want = evo.propagate(evo.build_schedule(pair, steps=256), dts, start, a, b)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()
        c = got[0]


@pytest.mark.parametrize("n, columns, cells", [(5, 32, 32), (5, 14, 64), (2, 26, 64), (5, 1, 64)])
def test_propagate_chunks_are_bounded_by_bytes_and_change_no_bit(
    monkeypatch, n, columns, cells
):
    # the widest lockstep pass at n = 5 takes half the cells a chunk, halving its buffers;
    # narrower passes, and every pass at n = 2, keep 64 cells
    assert evo._phase_cells(2**n, columns) == cells
    plan = evo.build_schedule(ham.pair_from_seed(n, 2), steps=256)
    dts = np.multiply.outer(plan.widths, np.geomspace(0.1, 100.0, columns))
    start = evo.initial_coefficients(plan, columns)

    def traced():
        tracemalloc.start()
        try:
            return evo.propagate(plan, dts, start), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (c, drift), peak = traced()
    monkeypatch.setattr(evo, "_PHASE_BYTES", 1 << 62)
    (c_whole, drift_whole), peak_whole = traced()
    assert c.tobytes() == c_whole.tobytes() and drift.tobytes() == drift_whole.tobytes()
    buffers = 40 * 2**n * columns  # states, phases and angles of one cell
    assert peak < peak_whole - (64 - cells) * buffers + buffers


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    T=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
)
def test_propagate_norm_drift_is_roundoff_at_any_T(n, seed, T):
    plan = evo.build_schedule(ham.pair_from_seed(n, seed), steps=128)
    c, drift = evo.propagate(plan, np.multiply.outer(plan.widths, [T]),
                             evo.initial_coefficients(plan))
    assert drift[0] <= 1e-9
    assert abs(np.linalg.norm(c[:, 0]) - 1.0) <= 1e-9


def test_norm_drift_reports_non_finite_steps_as_nan():
    pair = ham.pair_from_seed(2, 3)
    plan = evo.build_schedule(pair, steps=64)
    dts = np.multiply.outer(plan.widths, [0.5, 0.5])
    dts[10, 1] = np.nan
    with np.errstate(invalid="ignore"):
        _, drift = evo.propagate(plan, dts, evo.initial_coefficients(plan, 2))
        assert drift[0] < 1e-12 and np.isnan(drift[1])  # columns stay independent
        # evolve refuses a non-finite gain; cell widths set past it
        # still send non-finite steps through evolve's drift bookkeeping
        inst = evo.Instance(pair, 64)
        inst.plan.widths[:] = np.inf
        for stride in (0, 16):
            rec = inst.evolve("linear", 1.0, sample_stride=stride)
            assert np.isnan(rec.norm_drift)


@pytest.mark.parametrize(
    "n, family",
    [
        pytest.param(2, "feedback", id="feedback-n2"),
        pytest.param(5, "linear", id="linear-n5"),
    ],
)
def test_sweeps_whose_phases_overflow_are_refused(n, family):
    with pytest.raises(ValueError, match="total time"):
        evo.Instance(ham.pair_from_seed(n, 3), 64).evolve(family, 1e308)


def test_linear_run_realizes_exactly_its_time():
    pair = ham.pair_from_seed(2, 3)
    rec = evo.Instance(pair, 128).evolve("linear", 0.37)
    assert rec.T == pytest.approx(0.37, rel=1e-12)


def test_instance_run_returns_each_batch_in_order_as_batches_of_one_would():
    inst = evo.Instance(ham.pair_from_seed(3, 4), 256)
    batches = [("feedback", np.geomspace(0.1, 30.0, 5)), ("linear", 2.0), ("linear", [0.3, 7.0])]
    got = inst.run(batches)
    assert [P.shape for P in got] == [(5,), (1,), (2,)]
    for (family, Ts), P in zip(batches, got):
        for T, p in zip(np.atleast_1d(Ts), P):
            [one] = inst.run([(family, T)])
            np.testing.assert_allclose(p, one[0], rtol=0, atol=1e-12)


def test_instance_run_refuses_an_unknown_family_before_propagating(monkeypatch):
    def no_pass(*args):
        raise AssertionError("nothing may be propagated")

    inst = evo.Instance(ham.pair_from_seed(2, 4), 64)
    monkeypatch.setattr(evo, "propagate", no_pass)
    with pytest.raises(ValueError, match="unknown controller family 'quadratic'"):
        inst.run([("linear", 1.0), ("quadratic", [1.0, 2.0])])


def test_evolve_and_run_share_one_pace_rule_and_one_plan(monkeypatch):
    plans, build = [], evo.build_schedule

    def counted(*args):
        plans.append(build(*args))
        return plans[-1]

    monkeypatch.setattr(evo, "build_schedule", counted)
    inst = evo.Instance(ham.pair_from_seed(3, 4), 256)
    T, k = 2.0, 0.3
    [P_lin] = inst.run([("linear", [T])])
    assert np.float64(inst.evolve("linear", T).P).tobytes() == P_lin.tobytes()
    [P_fb] = inst.run([("feedback", k * inst.unit_time)])
    np.testing.assert_allclose(inst.evolve("feedback", k).P, P_fb[0], rtol=0, atol=1e-12)
    assert len(plans) == 1


def test_unit_norm_is_preserved():
    pair = ham.pair_from_seed(3, 2)
    for T in (1e-3, 1.0, 50.0):
        rec = evo.Instance(pair, 512).evolve("linear", T)
        assert rec.norm_drift <= 1e-9
        assert np.linalg.norm(rec.psi) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_slow_sweep_is_adiabatic(seed):
    pair = ham.pair_from_seed(2, seed)
    T = 100.0 * evo.adiabatic_time(pair)
    rec = evo.Instance(pair, 1024).evolve("linear", T)
    assert rec.P >= 0.99


def test_fast_sweep_is_sudden():
    pair = ham.pair_from_seed(2, 6)
    plan = evo.build_schedule(pair, steps=512)
    p_frozen = abs(plan.psi0[plan.ground_index]) ** 2
    T = 1e-4 * evo.adiabatic_time(pair)
    rec = evo.Instance(pair, 512).evolve("linear", T)
    assert rec.P == pytest.approx(p_frozen, abs=0.02)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-1e3, 1e3),
)
@example(n=2, seed=12, shift=7.3)
def test_energy_shift_does_not_change_outcome(n, seed, shift):
    # adding a constant to H_p only changes a global phase
    pair = ham.pair_from_seed(n, seed)
    shifted = ham.HamiltonianPair(
        problem_diag=pair.problem_diag + shift,
        bias=pair.bias,
        n=pair.n,
        Z=pair.Z,
        seed=pair.seed,
    )
    for family, gain in (("linear", 2.0), ("feedback", 0.1)):
        a = evo.Instance(pair, 512).evolve(family, gain)
        b = evo.Instance(shifted, 512).evolve(family, gain)
        assert b.P == pytest.approx(a.P, abs=1e-9)
    assert evo.adiabatic_time(shifted) == pytest.approx(evo.adiabatic_time(pair), rel=1e-9)
    assert evo.min_gap(shifted)[0] == pytest.approx(evo.min_gap(pair)[0], rel=1e-9)


def test_step_refinement_converges_at_second_order():
    # individual halvings wobble because the adaptive grid redistributes
    # cells, so fit the decay rate across a 16x range of step counts
    pair = ham.pair_from_seed(2, 0)
    T = 2.0

    def p_at(steps):
        return evo.Instance(pair, steps).evolve("linear", T).P

    ref = p_at(16384)
    counts = np.array([256, 512, 1024, 2048, 4096])
    errors = np.array([abs(p_at(s) - ref) for s in counts])
    slope = np.polyfit(np.log(counts), np.log(errors), 1)[0]
    assert -3.0 < slope < -1.5


def test_feedback_time_matches_quadrature():
    pair = ham.pair_from_seed(2, 7)
    inst = evo.Instance(pair, 2048)
    k = 1.7 / inst.unit_time
    rec = inst.evolve("feedback", k)
    assert rec.T == pytest.approx(1.7, rel=1e-9)
    flow = spectral.solve_levels(pair)

    def integrand(lam):
        c2_full, _ = flow.curvatures(np.array([lam]))
        return k * max(abs(c2_full[0]), inst.floor)

    want, _ = quad(integrand, 0.0, 1.0, limit=200)
    assert rec.T == pytest.approx(want, rel=1e-6)


def test_explicit_floor_is_kept_and_paces_the_sweep():
    # a floor far above every |c2| makes the pace constant: T = k * floor
    pair = ham.pair_from_seed(2, 7)
    c2_full, _ = spectral.solve_levels(pair).curvatures(np.linspace(1.0, 0.0, 2001))
    floor = 10.0 * float(np.abs(c2_full).max())
    inst = evo.Instance(pair, 256, floor)
    rec = inst.evolve("feedback", 0.5)
    assert inst.floor == floor
    assert rec.T == pytest.approx(0.5 * floor, rel=1e-12)
    assert 3.0 / inst.unit_time == pytest.approx(3.0 / floor, rel=1e-12)


def test_replay_profile_reproduces_live_run():
    pair = ham.pair_from_seed(2, 9)
    flow = spectral.solve_levels(pair)
    live = evo.Instance(pair, 1024).evolve("feedback", 0.08)

    lams = np.linspace(1.0, 0.0, 1024)
    c2_full, _ = flow.curvatures(lams)
    rec = evo.Instance(pair, 1024, profile=(lams, c2_full)).evolve("feedback", 0.08)
    assert rec.P == pytest.approx(live.P, abs=1e-4)
    assert rec.T == pytest.approx(live.T, rel=1e-4)


def test_feedback_slows_down_where_curvature_peaks():
    pair = ham.pair_from_seed(2, 1)
    rec = evo.Instance(pair, 1024).evolve("feedback", 0.1, sample_stride=32)
    lam = rec.samples[:, 0]
    t = rec.samples[:, 1]
    c2 = rec.samples[:, 4]
    # wall-clock spent per unit lam correlates with |c2| along the sweep
    dt = np.diff(t)
    dlam = -np.diff(lam)
    local_pace = dt / dlam
    c2_mid = (c2[:-1] + c2[1:]) / 2
    assert np.corrcoef(local_pace, c2_mid)[0, 1] > 0.99


def test_trajectory_sampling_contracts():
    pair = ham.pair_from_seed(2, 2)
    inst = evo.Instance(pair, 256)
    rec = inst.evolve("linear", 1.0, sample_stride=64)
    s = rec.samples
    assert s.shape[1] == len(evo.SAMPLE_COLUMNS)
    assert s[0, 0] == 1.0 and s[-1, 0] == 0.0
    assert np.all(np.diff(s[:, 0]) < 0)  # lam descending
    assert np.all(np.diff(s[:, 1]) > 0)  # time ascending
    assert s[-1, 1] == pytest.approx(rec.T, rel=1e-12)
    assert s[0, 2] == pytest.approx(1.0, abs=1e-12)  # starts in the ground state
    assert np.all(s[:, 3] > 0)  # gaps
    # a stride past the last cell: the two end rows, and no basis between cells to decompose
    ends = inst.evolve("linear", 1.0, sample_stride=10**6)
    assert np.array_equal(ends.samples, s[[0, -1]])


def test_trajectory_rows_match_expm_chain():
    # 256 cells in 16-cell segments; and 200 cells, three whole phase chunks and a partial
    # one in the whole sweep, 72-cell segments of a whole chunk and a partial one in the
    # trajectory, through propagate's reused chunk buffers
    pair = ham.pair_from_seed(3, 11)
    for steps, stride in ((256, 16), (200, 72)):
        inst = evo.Instance(pair, steps)
        plan = inst.plan
        assert plan.cells == steps
        rec = inst.evolve("linear", 2.0, sample_stride=stride)
        dts = plan.widths * 2.0
        marks = [*range(0, plan.cells, stride), plan.cells]
        assert rec.samples.shape[0] == len(marks)
        for row, b in zip(rec.samples, marks):
            assert row[0] == plan.lams[b]
            psi = _expm_chain(plan, dts[:b])  # stopped at node b
            es = ham.spectrum_at(pair, plan.lams[b])
            assert row[2] == pytest.approx(abs(es.states[:, 0] @ psi) ** 2, abs=1e-12)
            assert row[3] == pytest.approx(es.gap(), rel=1e-12)
            c2_full, _ = spectral.curvature_from_spectrum(es, pair.bias)
            assert row[4] == pytest.approx(abs(c2_full), rel=1e-12)
        whole = inst.evolve("linear", 2.0)
        assert rec.samples[-1, 2] == pytest.approx(whole.P, abs=1e-12)
        assert rec.P == whole.P and rec.norm_drift == whole.norm_drift


def test_negative_sample_stride_is_refused():
    pair = ham.pair_from_seed(2, 3)
    with pytest.raises(ValueError, match="sample_stride"):
        evo.Instance(pair, 64).evolve("linear", 1.0, sample_stride=-3)


# ----------------------------------------------------------------- timescales


def test_min_gap_single_qubit_closed_form():
    eps, Z = 3.0, 5.0
    pair = one_qubit_pair(eps, Z)
    gap, lam_star = evo.min_gap(pair)
    assert gap == pytest.approx(2 * eps, rel=1e-9)
    assert lam_star == pytest.approx(0.0, abs=1e-6)


def test_min_gap_agrees_with_dense_scan():
    pair = ham.pair_from_seed(3, 13)
    gap, lam_star = evo.min_gap(pair)
    lams = np.linspace(0.0, 1.0, 4001)
    scan = min(ham.spectrum_at(pair, float(l)).gap() for l in lams)
    assert gap <= scan + 1e-12
    assert gap == pytest.approx(scan, rel=1e-4)


def test_adiabatic_time_single_qubit_closed_form():
    eps, Z = 2.0, 30.0
    pair = one_qubit_pair(eps, Z)
    # coupling to the excited level peaks at lam = 0 where it equals Z, and
    # the minimum gap is 2*eps, giving Z / (4 eps^2)
    assert evo.adiabatic_time(pair) == pytest.approx(Z / (4 * eps**2), rel=1e-6)


def test_adiabatic_time_scales_inversely_with_energy():
    epsilon = ham.sample_epsilon(2, 21)
    pair = ham.make_pair(2, epsilon, 21)
    c = 3.0
    scaled = ham.make_pair(2, epsilon * c, 21, Z=pair.Z * c)
    assert evo.adiabatic_time(scaled) == pytest.approx(
        evo.adiabatic_time(pair) / c, rel=1e-6
    )


@pytest.mark.parametrize(
    "epsilon",
    [[-8.80899680437482e-179],
     [1.8976573441440942e270, -3.131609715724274e-214, -1.5476340718728332e269]],
    ids=["gap-squared-underflows", "gap-squared-overflows"],
)
def test_an_adiabatic_time_that_is_not_finite_is_refused(epsilon):
    # n = 1 once returned inf with a RuntimeWarning; n = 2 raised OverflowError
    pair = ham.make_pair(len(epsilon).bit_length(), np.array(epsilon))
    with pytest.raises(SimulationError, match="no finite adiabatic time"):
        evo.adiabatic_time(pair)


def test_sweep_slower_than_adiabatic_time_succeeds_everywhere():
    for seed in range(5):
        pair = ham.pair_from_seed(2, seed)
        T = 30.0 * evo.adiabatic_time(pair)
        rec = evo.Instance(pair, 1024).evolve("linear", T)
        assert rec.P > 0.9


def _scalar_min_gap(pair, lams):
    """Per-lam scan of the gap, then the same bounded refinement."""

    def gap(lam):
        w = np.linalg.eigvalsh(np.diag(pair.problem_diag) + lam * pair.bias)
        return float(w[1] - w[0])

    i = int(np.argmin([gap(lam) for lam in lams]))
    lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)]
    res = minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return min((float(res.fun), float(res.x)), (gap(lo), lo), (gap(hi), hi))


def _scalar_adiabatic_time(pair, lams):
    """Per-lam spectrum_at scan of the coupling, then the same refinements."""

    def coupling(lam):
        es = ham.spectrum_at(pair, lam)
        return float(np.max(np.abs(es.states[:, 0] @ pair.bias @ es.states[:, 1:])))

    values = np.array([coupling(lam) for lam in lams])
    i = int(np.argmax(values))
    lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)]
    res = minimize_scalar(lambda lam: -coupling(lam), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    peak = max(values[i], -float(res.fun))
    return peak / _scalar_min_gap(pair, lams)[0] ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_scan_matches_scalar_reference(n):
    lams = np.linspace(0.0, 1.0, 512)
    for seed in (3, 8):
        pair = ham.pair_from_seed(n, seed)
        gap, lam_star = evo.min_gap(pair)
        want_gap, want_lam = _scalar_min_gap(pair, lams)
        assert gap == pytest.approx(want_gap, rel=1e-12)
        assert lam_star == pytest.approx(want_lam, rel=1e-12, abs=1e-12)
        assert evo.adiabatic_time(pair) == pytest.approx(
            _scalar_adiabatic_time(pair, lams), rel=1e-12
        )


# ----------------------------------------------------------------- backaction


def test_backaction_window_truth_table():
    ok = evo.backaction_window_ok
    assert ok(evo.BackactionWindow(delta_min=5.0, omega_lc=2.0, gamma_lc=1.0))
    assert not ok(evo.BackactionWindow(delta_min=2.0, omega_lc=2.0, gamma_lc=1.0))
    assert ok(evo.BackactionWindow(delta_min=0.5, omega_lc=2.0, gamma_lc=1.0))


def test_backaction_window_validation():
    with pytest.raises(ValueError):
        evo.BackactionWindow(delta_min=0.0, omega_lc=1.0, gamma_lc=0.5)
    with pytest.raises(ValueError):
        evo.BackactionWindow(delta_min=1.0, omega_lc=-1.0, gamma_lc=0.5)
