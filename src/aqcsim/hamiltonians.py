"""Problem/bias Hamiltonian construction, its one check, and the spectrum of H(lam).

The annealing Hamiltonian is H(lam) = H_p + lam * H_b with lam swept from 1
down to 0.  H_p is diagonal in the computational basis: a random sum over
every nontrivial product of sigma_z factors, with Gaussian coefficients of
standard deviation n**2.  H_b = -Z * sum_i sigma_x^(i) is a strong uniform
transverse field, Z = 10**(n/2) by default, whose ground state is the equal
superposition of all basis states.

Index convention: basis states and sigma_z-product labels are integers whose
bit i (least significant = qubit 1) says whether qubit i is |1> (for states)
or carries a sigma_z factor (for labels).  The eigenvalue of the product
labelled j on basis state b is then (-1)**popcount(j & b).

Eigenvectors are np.linalg.eigh's, each defined up to sign; no output
(curvature, P, gap) depends on that sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundError

# Bytes of H(lam) and eigenvectors that one stacked decomposition may hold:
# at most 64 matrices at n = 5, 256 at n = 4, 1024 at n = 3 (chunk_slices).
_STACK_BYTES = 1 << 20
# Schedule cells of every plan whose caller names none; stated here, below every layer,
# so that the CLI's --steps default needs no import of the evolution layer
DEFAULT_STEPS = 2048

__all__ = [
    "HamiltonianPair",
    "EigenSystem",
    "default_bias_strength",
    "sample_epsilon",
    "build_problem",
    "build_bias",
    "make_pair",
    "pair_from_seed",
    "checked_lams",
    "checked_positive",
    "checked_fraction",
    "checked_ascending",
    "total_hamiltonian",
    "spectrum_at",
    "chunk_size",
    "chunk_slices",
    "spectrum_chunks",
    "problem_ground_index",
]


def default_bias_strength(n: int) -> float:
    """Strong-bias field strength used throughout: Z = 10**(n/2)."""
    return 10.0 ** (n / 2.0)


@dataclass(frozen=True)
class HamiltonianPair:
    """The (H_p, H_b) pair defining one annealing instance.

    problem_diag is the diagonal of H_p; bias is the dense symmetric H_b.
    n, Z and seed are carried through for bookkeeping and output manifests.
    Construction is the one check of an input H(lam): n >= 1, problem_diag
    of length 2**n, bias 2**n x 2**n, both finite, bias symmetric to 1e-10
    of its norm.  A failed check raises ValueError naming the field;
    spectrum_at, the one routine that decomposes H(lam), then checks none
    of the matrices it decomposes.
    """

    problem_diag: np.ndarray
    bias: np.ndarray
    n: int
    Z: float
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "problem_diag", np.asarray(self.problem_diag, dtype=float)
        )
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=float))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        dim = 2**self.n
        for name, shape in (("problem_diag", (dim,)), ("bias", (dim, dim))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} must have shape {shape} for n = {self.n}, got {got}")
        if not np.all(np.isfinite(self.problem_diag)):
            raise ValueError("problem_diag has a non-finite entry")
        if not _hermitian(self.bias):
            raise ValueError("bias must be finite and symmetric")

    @property
    def dim(self) -> int:
        return self.problem_diag.size


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous spectrum of H(lam): sorted energies and eigencolumns.

    For a stack of lam values, energies is (..., dim) and states
    (..., dim, dim), each column defined up to sign; gap() and
    ground_couplings() then return arrays over the stack.
    """

    energies: np.ndarray
    states: np.ndarray

    def gap(self):
        """E_1 - E_0."""
        return self.energies[..., 1] - self.energies[..., 0]

    def ground_couplings(self, bias: np.ndarray) -> np.ndarray:
        """<0|H_b|k> for k >= 1, shape (..., dim - 1), up to sign."""
        V = self.states
        return ((V[..., :, 0] @ bias)[..., None, :] @ V[..., :, 1:])[..., 0, :]


def sample_epsilon(n: int, seed: int) -> np.ndarray:
    """Draw the 2**n - 1 coupling strengths of one random instance.

    epsilon[j-1] multiplies the sigma_z product labelled j.  Uses PCG64
    seeded through SeedSequence, so results are identical across platforms
    and numpy versions that share the generator.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.normal(loc=0.0, scale=float(n) ** 2, size=2**n - 1)


def build_problem(n: int, epsilon: np.ndarray) -> np.ndarray:
    """Diagonal of H_p in the computational basis.

    Entry b is sum_j epsilon_j * (-1)**popcount(j & b): each sigma_z product
    is diagonal, so H_p is as well.
    """
    dim = 2**n
    pop = np.array([bin(x).count("1") for x in range(dim)])
    b = np.arange(dim)
    diag = np.zeros(dim)
    for j in range(1, dim):
        diag += epsilon[j - 1] * (1.0 - 2.0 * (pop[j & b] & 1))
    return diag


def build_bias(n: int, Z: float) -> np.ndarray:
    """Dense -Z * sum_i sigma_x^(i): entries -Z between labels one bit apart."""
    dim = 2**n
    H = np.zeros((dim, dim))
    rows = np.arange(dim)
    for i in range(n):
        H[rows, rows ^ (1 << i)] = -Z
    return H


def make_pair(n: int, epsilon, seed: int = 0, Z: float | None = None) -> HamiltonianPair:
    """The pair of n qubits with couplings epsilon under a bias of strength Z.

    Refuses n < 1, an epsilon whose length is not 2**n - 1, and a Z that is
    not finite and positive; Z = None is default_bias_strength(n).  seed is
    recorded with the pair, so that an instance can be rebuilt from (n, seed).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape != (2**n - 1,):
        raise ValueError(f"epsilon needs 2**n - 1 = {2**n - 1} entries, got {epsilon.shape}")
    Z = default_bias_strength(n) if Z is None else checked_positive("Z", Z)
    return HamiltonianPair(
        problem_diag=build_problem(n, epsilon), bias=build_bias(n, Z), n=n, Z=Z, seed=seed
    )


def pair_from_seed(n: int, seed: int) -> HamiltonianPair:
    """Sample, build and pair up one instance at the default bias."""
    return make_pair(n, sample_epsilon(n, seed), seed)


def checked_lams(lam) -> np.ndarray:
    """lam as a float array; a value outside [0, 1], or NaN, is refused with a ValueError."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return lam


def checked_positive(name: str, value):
    """value; a ValueError naming it unless every entry is finite and positive (NaN is not)."""
    entries = np.asarray(value)
    if not np.all((entries > 0) & (entries < np.inf)):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def checked_fraction(name: str, value):
    """value; a ValueError naming it unless it lies strictly between 0 and 1 (NaN does not)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def checked_ascending(name: str, values) -> np.ndarray:
    """values as a float array; ValueError unless non-empty, finite, positive and strictly ascending."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError(f"{name} must not be empty")
    checked_positive(name, values)
    if np.any(np.diff(values) <= 0):
        raise ValueError(f"{name} must be strictly ascending, got {values}")
    return values


def total_hamiltonian(pair: HamiltonianPair, lam) -> np.ndarray:
    """H(lam) = H_p + lam * H_b; an array of lam gives the stack of matrices."""
    lam = checked_lams(lam)
    H = lam[..., None, None] * pair.bias
    diagonal = np.arange(pair.dim)
    H[..., diagonal, diagonal] += pair.problem_diag
    return H


def _hermitian(H: np.ndarray) -> bool:
    """Every entry finite, and each matrix of a stack its conjugate transpose to 1e-10."""
    if not np.all(np.isfinite(H)):
        return False
    # in units of each matrix's largest entry, so that the norms cannot overflow
    largest = np.abs(H).max(axis=(-2, -1), keepdims=True)
    H = H / np.where(largest > 0, largest, 1.0)
    hnorm = np.linalg.norm(H, axis=(-2, -1))
    asym = np.linalg.norm(H - np.swapaxes(H, -2, -1).conj(), axis=(-2, -1))
    return bool(np.all(asym <= 1e-10 * hnorm))


def spectrum_at(pair: HamiltonianPair, lam) -> EigenSystem:
    """EigenSystem of H(lam), stacked for an array of lam; the pair was checked when built.

    eigh's energies (ascending) and eigenvectors, each defined up to sign.
    """
    w, V = np.linalg.eigh(total_hamiltonian(pair, lam))
    return EigenSystem(energies=w, states=V)


def chunk_size(dim: int) -> int:
    """Most matrices per stacked decomposition: H(lam) and its eigenvectors in _STACK_BYTES.

    At least 3, so that chunk_slices never leaves one point alone.
    """
    return max(3, _STACK_BYTES // (16 * dim * dim))


def chunk_slices(size: int, dim: int, share: int = 1):
    """Consecutive slices of range(size), few and even, at most chunk_size(dim) // share long.

    No slice of a larger range holds a single point, whatever the share (the
    bound never falls below 3): numpy multiplies a one-row matrix by gemv,
    not gemm, and EigenSystem.ground_couplings would change in the last bit.
    """
    count = -(-size // max(3, chunk_size(dim) // share))
    for i in range(count):
        yield slice(size * i // count, size * (i + 1) // count)


def spectrum_chunks(pair: HamiltonianPair, lams: np.ndarray):
    """(part, EigenSystem of lams[part]) for the chunk_slices of a 1-D lams, in order.

    Every matrix is decomposed by its own LAPACK call, so the spectra and
    what the callers compute from them (EigenSystem.ground_couplings
    included) are bitwise those of one stacked spectrum_at over all of lams.
    """
    for part in chunk_slices(lams.size, pair.dim):
        yield part, spectrum_at(pair, lams[part])


def problem_ground_index(pair: HamiltonianPair) -> int:
    """Basis index of the unique minimum of H_p's diagonal.

    Raises DegenerateGroundError when the two smallest entries are closer
    than 1e-12 times the diagonal's spread; success probability is not
    well defined for such instances and ensembles drop them.
    """
    diag = pair.problem_diag
    order = np.argsort(diag, kind="stable")
    spread = float(diag[order[-1]] - diag[order[0]])
    if diag[order[1]] - diag[order[0]] <= 1e-12 * spread:
        raise DegenerateGroundError(
            f"tied ground states {order[0]} and {order[1]} "
            f"(gap {diag[order[1]] - diag[order[0]]:.3g}, spread {spread:.3g})"
        )
    return int(order[0])
