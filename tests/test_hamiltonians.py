"""Construction-level checks against independently built operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from aqcsim import hamiltonians as ham
from aqcsim.errors import DegenerateGroundError

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)


def kron_chain(ops):
    """ops[i] acts on qubit i; qubit 0 is the least-significant bit."""
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = np.kron(out, op)
    return out


def problem_diag_reference(n, epsilon):
    """Slow per-entry construction straight from the coupling definition."""
    dim = 2**n
    diag = np.zeros(dim)
    for b in range(dim):
        for j in range(1, dim):
            parity = bin(j & b).count("1") & 1
            diag[b] += epsilon[j - 1] * (-1.0) ** parity
    return diag


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 3), (3, 14), (4, 99)])
def test_problem_diag_matches_reference(n, seed):
    spec = ham.sample_problem(n, seed)
    got = ham.build_problem(spec)
    want = problem_diag_reference(n, spec.epsilon)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1, np.abs(want).max()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_problem_diag_is_the_hadamard_transform(n, seed):
    # the signs (-1)**popcount(j & b) are the Sylvester-Hadamard matrix entries
    spec = ham.sample_problem(n, seed)
    want = hadamard(2**n, dtype=float) @ np.concatenate([[0.0], spec.epsilon])
    np.testing.assert_allclose(
        ham.build_problem(spec), want, rtol=0, atol=1e-13 * np.abs(want).max()
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bias_matches_kronecker_sum(n):
    Z = ham.default_bias_strength(n)
    got = ham.build_bias(ham.BiasSpec(n=n, Z=Z))
    want = np.zeros((2**n, 2**n))
    for i in range(n):
        ops = [ID2] * n
        ops[i] = SX
        want -= Z * kron_chain(ops)
    np.testing.assert_array_equal(got, want)


def test_bias_strength_values():
    assert ham.default_bias_strength(2) == 10.0
    assert ham.default_bias_strength(4) == 100.0
    assert ham.default_bias_strength(3) == pytest.approx(10**1.5)


def test_sampling_is_deterministic_and_sized():
    a = ham.sample_problem(3, 42)
    b = ham.sample_problem(3, 42)
    c = ham.sample_problem(3, 43)
    assert a.epsilon.shape == (7,)
    np.testing.assert_array_equal(a.epsilon, b.epsilon)
    assert not np.array_equal(a.epsilon, c.epsilon)


def test_sampling_scale_tracks_qubit_count():
    # couplings are drawn with standard deviation n^2
    for n, sd in [(2, 4.0), (3, 9.0)]:
        pooled = np.concatenate(
            [ham.sample_problem(n, s).epsilon for s in range(400)]
        )
        assert abs(pooled.std() - sd) / sd < 0.05
        assert abs(pooled.mean()) < 0.2 * sd


def test_problem_spec_rejects_wrong_length():
    with pytest.raises(ValueError):
        ham.ProblemSpec(n=2, epsilon=np.zeros(2), seed=0)


def test_total_hamiltonian_interpolates():
    pair = ham.pair_from_seed(2, 8)
    H1 = ham.total_hamiltonian(pair, 1.0)
    H0 = ham.total_hamiltonian(pair, 0.0)
    np.testing.assert_array_equal(H0, np.diag(pair.problem_diag))
    np.testing.assert_allclose(H1, np.diag(pair.problem_diag) + pair.bias)
    with pytest.raises(ValueError):
        ham.total_hamiltonian(pair, 1.5)
    with pytest.raises(ValueError):
        ham.total_hamiltonian(pair, -0.1)


def test_diagonalize_contracts():
    pair = ham.pair_from_seed(3, 21)
    es = ham.spectrum_at(pair, 0.37)
    V, E = es.states, es.energies
    dim = V.shape[0]
    assert np.all(np.diff(E) >= 0)
    np.testing.assert_allclose(V.T @ V, np.eye(dim), atol=1e-12)
    H = ham.total_hamiltonian(pair, 0.37)
    np.testing.assert_allclose(V @ np.diag(E) @ V.T, H, atol=1e-10 * np.abs(E).max())


def test_hermitian_check_is_not_blind_to_nan():
    # eigh reads only the lower triangle, so [[1, nan], [0, 0]] would
    # decompose to energies [0, 1] if a NaN compared as symmetric
    M = np.array([[1.0, np.nan], [0.0, 0.0]])
    assert not ham._hermitian(M)
    for bias in (M, np.array([[np.inf, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="bias"):
            ham.HamiltonianPair(problem_diag=np.zeros(2), bias=bias, n=1, Z=1.0, seed=0)


_CORNER = np.eye(4, k=3, dtype=bool)  # the one entry (0, 3) of a 4 x 4 matrix


@pytest.mark.parametrize(
    "key, edit, field",
    [
        pytest.param("bias", lambda b: b + _CORNER, "bias", id="asymmetric-bias"),
        pytest.param(
            "problem_diag", lambda d: np.r_[d[:3], np.nan], "problem_diag", id="nan-diagonal"
        ),
        pytest.param(
            "bias", lambda b: np.where(_CORNER, np.inf, b), "bias", id="infinite-bias-entry"
        ),
        pytest.param("bias", lambda b: b[:3, :3], "bias", id="3x3-bias-on-4-entries"),
        pytest.param("n", lambda n: 5, "problem_diag", id="n-5-over-4-entries"),
        pytest.param("problem_diag", lambda d: d[:3], "problem_diag", id="3-entry-diagonal"),
    ],
)
def test_malformed_pair_is_refused_where_it_is_built(key, edit, field):
    pair = ham.pair_from_seed(2, 3)
    kwargs = dict(
        problem_diag=pair.problem_diag, bias=pair.bias, n=pair.n, Z=pair.Z, seed=pair.seed
    )
    kwargs[key] = edit(kwargs[key])
    with pytest.raises(ValueError, match=field):
        ham.HamiltonianPair(**kwargs)


def test_make_pair_refuses_a_bias_for_another_size():
    with pytest.raises(ValueError):
        ham.make_pair(ham.sample_problem(2, 0), ham.BiasSpec.default(3))


def test_energy_shift_moves_spectrum_not_vectors():
    pair = ham.pair_from_seed(2, 17)
    shifted = ham.HamiltonianPair(
        problem_diag=pair.problem_diag + 5.0,
        bias=pair.bias,
        n=pair.n,
        Z=pair.Z,
        seed=pair.seed,
    )
    a = ham.spectrum_at(pair, 0.4)
    b = ham.spectrum_at(shifted, 0.4)
    np.testing.assert_allclose(b.energies, a.energies + 5.0, atol=1e-10)
    # eigenvectors are defined up to sign: each column overlap has modulus 1
    overlaps = np.einsum("ik,ik->k", a.states, b.states)
    np.testing.assert_allclose(np.abs(overlaps), 1.0, atol=1e-10)


def test_problem_ground_index_and_degeneracy_guard():
    spec = ham.ProblemSpec(n=2, epsilon=np.array([3.0, -1.0, 0.5]), seed=0)
    pair = ham.make_pair(spec)
    idx = ham.problem_ground_index(pair)
    assert idx == int(np.argmin(pair.problem_diag))

    flat = ham.make_pair(ham.ProblemSpec(n=2, epsilon=np.zeros(3), seed=0))
    with pytest.raises(DegenerateGroundError):
        ham.problem_ground_index(flat)


def test_bias_ground_is_exact_eigvec_of_bias():
    n = 3
    pair = ham.pair_from_seed(n, 2)
    dim = 2**n
    psi = np.full(dim, dim**-0.5)
    # uniform superposition is the -nZ eigenvector of the bias term alone
    np.testing.assert_allclose(pair.bias @ psi, -n * pair.Z * psi, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="at the default bias strength the problem term still mixes the "
    "initial ground state by several percent for typical 2-qubit draws; "
    "the 0.99 overlap holds only for much larger Z",
)
def test_initial_ground_is_nearly_uniform_at_default_strength():
    overlaps = []
    for seed in range(50):
        pair = ham.pair_from_seed(2, seed)
        es = ham.spectrum_at(pair, 1.0)
        uniform = np.full(4, 4**-0.5)
        overlaps.append(abs(es.states[:, 0] @ uniform) ** 2)
    assert np.mean(overlaps) >= 0.99


def test_initial_ground_approaches_uniform_for_strong_bias():
    spec = ham.sample_problem(2, 4)
    pair = ham.make_pair(spec, ham.BiasSpec(n=2, Z=1e5))
    es = ham.spectrum_at(pair, 1.0)
    uniform = np.full(4, 4**-0.5)
    assert abs(es.states[:, 0] @ uniform) ** 2 > 1.0 - 1e-6
