"""Level-dynamics checks against closed forms and finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqcsim import evolution as evo
from aqcsim import hamiltonians as ham
from aqcsim import spectral
from aqcsim._scipy_port import solve_ivp
from aqcsim.errors import IntegrationFailureError, NearDegeneracyError, SimulationError


def full_solve(level_problem, pair):
    """solve_levels' flow, and the dense output of all dim (dim + 2) rows of the same solve."""
    flow, args, kwargs = level_problem(pair)
    return flow, solve_ivp(*args, **{**kwargs, "rows": slice(None)}).sol


def one_qubit_pair(eps=3.0, Z=5.0):
    return ham.make_pair(1, np.array([eps]), Z=Z)


def closed_form_c2(lam, eps, Z):
    return -(eps**2) * Z**2 / (eps**2 + lam**2 * Z**2) ** 1.5


def test_single_qubit_energies_and_curvature_closed_form():
    eps, Z = 3.0, 5.0
    pair = one_qubit_pair(eps, Z)
    flow = spectral.solve_levels(pair)
    lams = np.linspace(1.0, 0.0, 11)
    E = flow.energies(lams)
    want = np.sqrt(eps**2 + lams**2 * Z**2)
    np.testing.assert_allclose(E[0], -want, atol=1e-9)
    np.testing.assert_allclose(E[1], +want, atol=1e-9)

    c2_full, c2_pair = flow.curvatures(lams)
    want_c2 = closed_form_c2(lams, eps, Z)
    np.testing.assert_allclose(c2_full, want_c2, atol=1e-7)
    # with a single excited level both variants are the same number
    np.testing.assert_allclose(c2_pair, c2_full, atol=1e-12)

    # ground-level velocity at the start of the sweep: dE0/dlam at lam = 1
    v0 = spectral.init_spectrum(pair)[1][0]
    assert v0 == pytest.approx(-(Z**2) / np.sqrt(eps**2 + Z**2), rel=1e-10)


def test_single_qubit_curvature_from_spectrum_closed_form():
    eps, Z = 2.0, 4.0
    pair = one_qubit_pair(eps, Z)
    for lam in (0.0, 0.2, 0.7, 1.0):
        c2_full, c2_pair = spectral.curvature_from_spectrum(
            ham.spectrum_at(pair, lam), pair.bias
        )
        assert c2_full == pytest.approx(closed_form_c2(lam, eps, Z), abs=1e-10)
        assert c2_pair == pytest.approx(c2_full, abs=1e-12)


def test_init_spectrum_structure():
    pair = ham.pair_from_seed(3, 6)
    E, v, L = spectral.init_spectrum(pair)
    es = ham.spectrum_at(pair, 1.0)
    np.testing.assert_allclose(E, es.energies, atol=1e-12)
    # velocities are the diagonal of the bias in the eigenbasis
    M = es.states.T @ pair.bias @ es.states
    np.testing.assert_allclose(v, np.diag(M), atol=1e-12)
    # couplings are gap-weighted off-diagonals, real, antisymmetric, zero diagonal
    assert L.dtype == np.float64
    np.testing.assert_allclose(L, -L.T, atol=1e-12)
    assert np.all(np.diag(L) == 0)
    # velocities sum to the (zero) trace of the bias term
    assert abs(v.sum()) < 1e-9 * np.abs(pair.bias).sum()


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_flow_tracks_exact_diagonalization(seed):
    pair = ham.pair_from_seed(2, seed)
    flow = spectral.solve_levels(pair)
    lams = np.linspace(1.0, 0.0, 21)
    E = flow.energies(lams)
    spread = E.max() - E.min()
    for j, lam in enumerate(lams):
        exact = ham.spectrum_at(pair, float(lam)).energies
        assert np.max(np.abs(E[:, j] - exact)) <= 1e-6 * spread


def test_level_sum_is_conserved():
    pair = ham.pair_from_seed(3, 9)
    flow = spectral.solve_levels(pair)
    lams = np.linspace(1.0, 0.0, 9)
    sums = flow.energies(lams).sum(axis=0)
    np.testing.assert_allclose(sums, pair.problem_diag.sum(), atol=1e-8)


def test_velocity_matches_energy_derivative(level_problem):
    pair = ham.pair_from_seed(2, 31)
    flow, full = full_solve(level_problem, pair)
    dim = pair.dim
    h = 1e-5
    for lam in (0.3, 0.6, 0.9):
        v = full(lam)[dim : 2 * dim]
        dE = (flow.energies(lam + h)[:, 0] - flow.energies(lam - h)[:, 0]) / (2 * h)
        np.testing.assert_allclose(v, dE, atol=1e-6 * np.abs(dE).max())


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 8), (3, 4)])
def test_curvature_matches_finite_difference(n, seed):
    pair = ham.pair_from_seed(n, seed)
    flow = spectral.solve_levels(pair)
    h = 1e-4
    for lam in np.linspace(0.05, 0.95, 7):
        c2_full, _ = flow.curvatures(np.array([lam]))
        e = [
            ham.spectrum_at(pair, lam + d).energies[0] for d in (-h, 0.0, h)
        ]
        fd = (e[0] - 2 * e[1] + e[2]) / h**2
        if abs(c2_full[0]) > 1e-6:
            assert c2_full[0] == pytest.approx(fd, rel=1e-3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_route_agreement_along_sweep(level_problem, n):
    # the dynamical curvature and the one-shot perturbation sum are
    # independent computations of the same derivative
    pair = ham.pair_from_seed(n, 44)
    flow, full = full_solve(level_problem, pair)
    dim = pair.dim
    lams = np.linspace(1.0, 0.0, 64)
    for lam in lams:
        L = full(lam)[2 * dim :].reshape(dim, dim)
        assert L.dtype == np.float64
        scale = np.abs(L).max()
        np.testing.assert_allclose(L, -L.T, rtol=0, atol=1e-12 * scale)
    c2_full, c2_pair = flow.curvatures(lams)
    d_full, d_pair = spectral.curvature_from_spectrum(ham.spectrum_at(pair, lams), pair.bias)
    assert c2_full == pytest.approx(d_full, rel=1e-6)
    assert c2_pair == pytest.approx(d_pair, rel=1e-6)


def test_ground_curvature_is_nonpositive():
    for seed in range(6):
        pair = ham.pair_from_seed(2, seed)
        flow = spectral.solve_levels(pair)
        c2_full, c2_pair = flow.curvatures(np.linspace(1.0, 0.0, 33))
        assert np.all(c2_full <= 0)
        assert np.all(c2_pair <= 0)
        assert np.all(c2_full <= c2_pair + 1e-15)  # full sum is more negative


def test_exact_degeneracy_is_refused():
    # with all couplings zero the bias spectrum has an exactly degenerate
    # middle pair, which the equations of motion cannot propagate through
    flat = ham.make_pair(2, np.zeros(3))
    with pytest.raises(NearDegeneracyError) as err:
        spectral.init_spectrum(flat)
    assert err.value.pair == (1, 2)


def test_a_nan_gap_fails_the_separation_check():
    with pytest.raises(NearDegeneracyError):
        spectral._check_separation(np.array([0.0, np.nan, 1.0]), 0.5, 1.0)


def level_rhs(level_problem, pair):
    """solve_levels' right-hand side, its start state and its separation floor."""
    _, (rhs, _, y0), _ = level_problem(pair)
    E = y0[: pair.dim]
    return rhs, y0, spectral.COLLISION_FLOOR * (E.max() - E.min())


@pytest.mark.parametrize(
    "level, shift, want",
    [(7, np.nan, (6, 7)), (3, -0.5, (2, 3)), (5, 0.25, (4, 5))],
    ids=["nan-level", "crossed-pair", "gap-below-floor"],
)
def test_the_level_rhs_refuses_a_state_naming_its_pair(level_problem, level, shift, want):
    pair = ham.pair_from_seed(3, 4)
    rhs, y0, floor = level_rhs(level_problem, pair)
    y = y0.copy()
    # a multiple of the floor past level - 1, or NaN
    y[level] = y[level - 1] + shift * floor
    with pytest.raises(NearDegeneracyError) as err:
        rhs(0.5, y)
    assert err.value.pair == want
    assert "lambda=0.500000" in str(err.value)


def test_the_level_rhs_carries_nothing_between_calls(level_problem):
    pair = ham.pair_from_seed(3, 4)
    rhs, a, _ = level_rhs(level_problem, pair)
    a_before = a.copy()
    b = a - 0.01 * rhs(1.0, a)  # a state one small Euler step down
    first, other, again = rhs(1.0, a), rhs(0.99, b), rhs(1.0, a)
    assert first.tobytes() == again.tobytes()
    assert not np.array_equal(first, other)
    for x, y in [(first, other), (first, again), (other, again), (first, a), (again, b)]:
        assert not np.shares_memory(x, y)
    assert a.tobytes() == a_before.tobytes()
    # the solver passes one stage buffer per solve and overwrites it between calls: the
    # RHS's views of it read its current state, and a new array gets views of its own
    buffer = a.copy()
    for lam, state, want in [(1.0, a, first), (0.99, b, other), (1.0, a, first)]:
        buffer[:] = state
        assert rhs(lam, buffer).tobytes() == want.tobytes()
    assert rhs(1.0, a.copy()).tobytes() == first.tobytes()


def test_profile_grid_and_values():
    pair = ham.pair_from_seed(2, 10)
    lams = np.linspace(1.0, 0.0, 65)
    got_full, got_pair, route = spectral.curvature_profile(pair, lams)
    assert got_full.shape == got_pair.shape == lams.shape
    assert route == "level_dynamics"
    flow = spectral.solve_levels(pair)
    c2_full, c2_pair = flow.curvatures(lams)
    np.testing.assert_allclose(got_full, c2_full, atol=1e-10)
    np.testing.assert_allclose(got_pair, c2_pair, atol=1e-10)


def test_profile_falls_back_to_diagonalization(monkeypatch):
    pair = ham.pair_from_seed(2, 10)
    lams = np.linspace(1.0, 0.0, 33)
    want_full, want_pair, _ = spectral.curvature_profile(pair, lams)

    def refuse(*a, **k):
        raise NearDegeneracyError("forced for test", pair=(0, 1))

    monkeypatch.setattr(spectral, "solve_levels", refuse)
    got_full, got_pair, route = spectral.curvature_profile(pair, lams)
    assert route == "diagonalization"
    np.testing.assert_allclose(got_full, want_full, rtol=1e-6)
    np.testing.assert_allclose(got_pair, want_pair, rtol=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    lams=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_stacked_perturbation_sum_matches_per_lambda(n, seed, lams):
    pair = ham.pair_from_seed(n, seed)
    lams = np.array(lams)
    es = ham.spectrum_at(pair, lams)
    stacked_full, stacked_pair = spectral.curvature_from_spectrum(es, pair.bias)
    assert stacked_full.shape == stacked_pair.shape == es.gap().shape == lams.shape
    for i, lam in enumerate(lams):
        es_one = ham.spectrum_at(pair, lam)
        assert es.gap()[i] == pytest.approx(es_one.gap(), rel=1e-12)
        one_full, one_pair = spectral.curvature_from_spectrum(es_one, pair.bias)
        assert stacked_full[i] == pytest.approx(one_full, rel=1e-12)
        # the k = 1 element alone can be small: relative to the full sum
        assert stacked_pair[i] == pytest.approx(
            one_pair, rel=1e-12, abs=1e-12 * abs(one_full)
        )


def test_pair_term_dominates_at_a_narrow_crossing():
    # when one excited level comes anomalously close, it carries nearly the
    # whole curvature sum at the peak -- the basis of reading the signal as
    # a two-level quantity.  These seeds have an isolated narrow crossing
    # (min gap 0.12, 0.80, 1.05 against a typical level spacing of ~10);
    # draws without one spread the sum over several levels, so the claim is
    # conditioned on sharpness rather than universal.
    for seed in (1, 28, 38):
        pair = ham.pair_from_seed(2, seed)
        flow = spectral.solve_levels(pair)
        lams = np.linspace(1.0, 0.0, 201)
        c2_full, c2_pair = flow.curvatures(lams)
        i = int(np.argmax(np.abs(c2_full)))
        assert c2_pair[i] / c2_full[i] > 0.8


def _dense_output_grids(pair):
    """A plan's nodes and midpoints (as Instance evaluates them), the profile grid, and
    points at the very edges of [0, 1], the range LevelFlow accepts."""
    plan = evo.build_schedule(pair, 1024)
    edges = np.array([1.0, np.nextafter(1.0, 0.0), 0.5, 5e-324, 0.0])
    return np.concatenate([plan.lams, plan.mids]), np.linspace(1.0, 0.0, 1024), edges


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cut_dense_output_equals_full_dense_output_bitwise(level_problem, n):
    # the flow keeps only the E and L-row-0 rows of each step
    pair = ham.pair_from_seed(n, 3)
    flow, full = full_solve(level_problem, pair)
    dim = pair.dim
    for lams in _dense_output_grids(pair):
        state = full(lams)
        assert state.shape == (dim * (dim + 2), lams.size)
        E, L0 = state[:dim], state[2 * dim : 3 * dim]
        np.testing.assert_array_equal(flow.energies(lams), E)
        terms = 2.0 * L0[1:] ** 2 / (E[1:] - E[:1]) ** 3
        c2_full, c2_pair = flow.curvatures(lams)
        np.testing.assert_array_equal(c2_full, -np.sum(terms, axis=0))
        np.testing.assert_array_equal(c2_pair, -terms[0])


@pytest.mark.parametrize("n, per_chunk", [(4, None), (5, None), (5, 3)])
def test_a_level_profile_in_chunks_equals_one_whole_grid_bitwise(monkeypatch, n, per_chunk):
    # at most per_chunk points a chunk (None: the module's budget) against one whole grid;
    # 2049 points are one over a multiple of 256 and 64, 65 one over a chunk at n = 5
    pair = ham.pair_from_seed(n, 4)
    flow = spectral.solve_levels(pair)
    if per_chunk is not None:
        monkeypatch.setattr(ham, "_STACK_BYTES", per_chunk * 16 * pair.dim**2)
    for size in (2049, 65, 2):
        lams = np.linspace(1.0, 0.0, size)
        parts = list(ham.chunk_slices(size, pair.dim))
        assert len(parts) > 1 or size <= ham.chunk_size(pair.dim)
        assert min(part.stop - part.start for part in parts) >= 2
        *got, route = spectral.curvature_profile(pair, lams)
        assert route == "level_dynamics"
        for a, b in zip(got, flow.curvatures(lams)):
            np.testing.assert_array_equal(a, b)


def test_a_level_profile_holds_only_the_rows_it_reads():
    # with every row of every step kept, this profile's traced peak was 17.8 MiB
    pair = ham.pair_from_seed(5, 3)
    lams = np.linspace(1.0, 0.0, 1024)
    tracemalloc.start()
    try:
        *_, route = spectral.curvature_profile(pair, lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert route == "level_dynamics"
    assert peak < 6 * 2**20


def test_a_curvature_that_overflows_is_refused():
    # a bias of 1e200 squares past the float range in the perturbation sum
    pair = ham.make_pair(2, np.array([1.0, 2.0, 3.0]), Z=1e200)
    with pytest.raises(SimulationError, match="non-finite"):
        spectral.curvature_profile(pair, np.linspace(1.0, 0.0, 16))


def test_a_start_that_overflows_the_level_equations_takes_the_diagonalization_route(
    monkeypatch,
):
    # a level spread of 2e150 cubes past the float range in the RHS, whose pair sums then
    # gave c2 = -0.0 on every lam; the perturbation sum gives about -1e-138
    pair = ham.make_pair(2, np.array([1e150, 1e140, 1.0]))
    lams = np.linspace(1.0, 0.0, 16)

    def never_called(*args, **kwargs):
        raise AssertionError("the level equations were integrated")

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "solve_ivp", never_called)
        with pytest.raises(IntegrationFailureError, match="overflows"):
            spectral.solve_levels(pair)
    c2_full, c2_pair, route = spectral.curvature_profile(pair, lams)
    assert route == "diagonalization"
    want = spectral.curvature_from_spectrum(ham.spectrum_at(pair, lams), pair.bias)
    np.testing.assert_array_equal(c2_full, want[0])
    np.testing.assert_array_equal(c2_pair, want[1])
    np.testing.assert_allclose(c2_full, -1e-138, rtol=1e-5)


def test_a_non_finite_level_curvature_is_refused(monkeypatch):
    def overflowed(self, lams):
        c2 = np.full(np.size(lams), -np.inf)
        return c2, c2

    monkeypatch.setattr(spectral.LevelFlow, "curvatures", overflowed)
    with pytest.raises(SimulationError, match="level_dynamics route gave a non-finite"):
        spectral.curvature_profile(ham.pair_from_seed(2, 10), np.linspace(1.0, 0.0, 16))


@pytest.mark.parametrize("lams", [[1.5], [-0.5], [np.nan], [0.5, 1.5]],
                         ids=["above-1", "below-0", "nan", "one-of-two"])
def test_a_lambda_outside_the_unit_interval_is_refused_by_both_routes(monkeypatch, lams):
    level_pair = ham.pair_from_seed(3, 1)
    flow = spectral.solve_levels(level_pair)
    for ask in (flow.energies, flow.curvatures):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\]"):
            ask(lams)

    def never_called(*args, **kwargs):
        raise AssertionError("the level equations were solved")

    monkeypatch.setattr(spectral, "solve_levels", never_called)
    # the level route, and a pair the level equations refuse (diagonalization route)
    for pair in (level_pair, ham.make_pair(2, [1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\]"):
            spectral.curvature_profile(pair, lams)
