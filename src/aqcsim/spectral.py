"""Level dynamics along the sweep and the ground-state curvature signal.

Instead of re-diagonalizing H(lam) at every schedule point, the spectrum can
be propagated in lam with the Pechukas-Yukawa equations of motion, which
treat the eigenvalues E_l as interacting particles with velocities
v_l = <l|H_b|l> and couplings l_lj = (E_l - E_j) <l|H_b|j>:

    dE_l/dlam = v_l
    dv_l/dlam = sum_{k != l}    2 |l_lk|^2 / (E_l - E_k)^3
    dl_lj/dlam = sum_{k != l,j} l_lk l_kj (1/(E_l - E_k)^2 - 1/(E_j - E_k)^2)

Every H(lam) built here is real symmetric, so the eigenvectors are real and
the coupling matrix is real antisymmetric: the state [E, v, L] is carried
as one float64 vector.  With the symmetric weights W[l, k] = 1/(E_l - E_k)^2
(zero diagonal), M = L * W is antisymmetric and the coupling equation reads
dL = M L - (M L)^T, one matrix product per right-hand-side evaluation.
Each solve allocates the right-hand side's dim x dim work arrays and binds
its numpy callables once; every evaluation overwrites the arrays by the
operations of fresh arrays, and remakes its views of the state only for a
new array, not for the solver's one stage buffer.  The separation check
reads the level gaps off the sub-diagonal of D[l, k] = E_l - E_k.  The
integrator's dense output keeps only the rows the package reads, E and
row 0 of L: 2 dim of the dim (dim + 2), 64 of 1088 at n = 5.

The ground-state curvature d^2 E_0 / dlam^2 is the l = 0 line of the
velocity equation; its two-level truncation keeps only the k = 1 term.
Every curvature function returns both as a (c2_full, c2_pair) pair of
arrays: the feedback controller uses the full sum, and the pair term
documents how dominant the nearest level is.  curvature_profile is the one
place that chooses the route on a lam grid: the level equations, or, when
they hit a near-degeneracy or fail, a diagonalization of the grid and the
perturbation sum, either in chunks of a bounded size; it returns the
route's name after the two arrays.

Everything here is a pure function of the Hamiltonian pair; trajectories
for different instances can be computed concurrently without shared state.
"""

from __future__ import annotations

import numpy as np

from . import hamiltonians as ham
# called through the module attribute, so that perfbench's tracer can wrap it
from ._scipy_port import solve_ivp
from .errors import IntegrationFailureError, NearDegeneracyError, SimulationError

__all__ = [
    "LevelFlow",
    "init_spectrum",
    "solve_levels",
    "curvature_from_spectrum",
    "curvature_profile",
]

# Levels closer than this fraction of the spectral spread make the equations
# of motion singular; the integrator refuses to continue rather than produce
# garbage, and curvature_profile falls back to direct diagonalization.
COLLISION_FLOOR = 1e-12


def _check_separation(E: np.ndarray, lam: float, scale: float) -> None:
    # runs on every RHS evaluation: locate the pair only when the check fails
    E_sorted = np.sort(E)
    gaps = E_sorted[1:] - E_sorted[:-1]
    if not gaps.min() >= COLLISION_FLOOR * scale:  # a NaN gap fails too
        k = int(gaps.argmin())
        raise NearDegeneracyError(
            f"levels {k} and {k + 1} separated by {gaps[k]:.3e} at "
            f"lambda={lam:.6f} (floor {COLLISION_FLOOR * scale:.3e})",
            pair=(k, k + 1),
        )


def init_spectrum(pair: ham.HamiltonianPair):
    """(E, v, L), the phase-space point at lam = 1, from exact diagonalization.

    E: level energies, ascending (the flow preserves their order for the
    nondegenerate ensemble).  v: level velocities <l|H_b|l>.  L: the real
    coupling matrix l_lj, zero diagonal, L[l, j] == -L[j, l].
    """
    es = ham.spectrum_at(pair, 1.0)
    scale = float(es.energies[-1] - es.energies[0])
    _check_separation(es.energies, 1.0, scale)
    M = es.states.T @ pair.bias @ es.states
    L = (es.energies[:, None] - es.energies[None, :]) * M
    np.fill_diagonal(L, 0.0)
    return es.energies, np.diag(M).copy(), L


class LevelFlow:
    """Dense-in-lam solution of the level equations for one instance.

    Wraps the integrator's dense output so schedules can query energies and
    curvature at arbitrary lam in [0, 1] without further integration.  The
    dense output keeps only the 2 * dim rows of the dim * (dim + 2) state
    that energies and curvatures read, E and then row 0 of L; every row is
    interpolated on its own, so these are the full solve's values bitwise.
    """

    def __init__(self, pair: ham.HamiltonianPair, dense):
        self.pair = pair
        self._dense = dense

    def energies(self, lams) -> np.ndarray:
        """Levels at each requested lam, shape (dim, len(lams)); a lam outside [0, 1] is refused."""
        return self._dense(np.atleast_1d(ham.checked_lams(lams)))[: self.pair.dim]

    def curvatures(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """(c2_full, c2_pair) arrays at the requested lam values; one outside [0, 1] is refused.

        c2_full = -sum_k 2 L0k^2 / (E_k - E_0)^3 over row l = 0 of L, and
        c2_pair is its k = 1 term.  Both are <= 0 for the ground level.
        Every point is interpolated on its own, so a grid evaluated in
        chunks of at least two points gives the whole grid's values bitwise.
        """
        E, L0 = np.split(self._dense(np.atleast_1d(ham.checked_lams(lams))), 2)
        terms = 2.0 * L0[1:] ** 2 / (E[1:] - E[:1]) ** 3
        return -np.sum(terms, axis=0), -terms[0]


def solve_levels(
    pair: ham.HamiltonianPair, rtol: float = 1e-8, atol: float = 1e-10
) -> LevelFlow:
    """Integrate the level equations from lam = 1 down to 0 (a start they overflow is refused)."""
    dim = pair.dim
    E1, v1, L1 = init_spectrum(pair)  # the state at lam = 1
    scale = float(np.max(E1) - np.min(E1)) or 1.0
    floor = COLLISION_FLOOR * scale
    big = float(np.finfo(float).max)  # the RHS cubes level differences, squares couplings
    if not (scale < big ** (1 / 3) and np.abs(L1).max() < (big / 2) ** 0.5):
        raise IntegrationFailureError(f"a start spread of {scale:.3g} overflows the level RHS")

    # the RHS's work arrays, private to this solve; every call overwrites them
    # before reading them (outputs go positionally: out= costs ~0.3 us a call)
    D, D2, work, ML = np.empty((4, dim, dim))
    D_diag, gaps = D.reshape(-1)[:: dim + 1], np.diagonal(D, -1)  # gaps[k] = E[k+1] - E[k]
    subtract, multiply, divide, matmul = np.subtract, np.multiply, np.divide, np.matmul
    min_reduce, add_reduce, empty, ML_T = np.minimum.reduce, np.add.reduce, np.empty, ML.T
    rows = (dim + 2, dim)  # the state [E, v, L] as rows: E, v, then the dim rows of L
    y_last = E = E_col = v = L = None  # the last state array and its views

    def rhs(lam, y):
        # Pair sums as matrix algebra over D[l, k] = E_l - E_k, whose
        # diagonal is a dummy 1: L has zero diagonal, so every k == l (and
        # k == j) term of the sums vanishes without being masked.
        nonlocal y_last, E, E_col, v, L
        if y is not y_last:  # a view reads y's current values, so only a new y needs new ones
            y_last, Y = y, y.reshape(rows)
            (E, v), L, E_col = Y[:2], Y[2:], Y[0, :, None]
        subtract(E_col, E, D)
        # E stays ascending, so its adjacent differences are the sorted gaps;
        # only a failure (or a crossing, or a NaN) takes the sorting check
        if not min_reduce(gaps) >= floor:
            _check_separation(E, lam, scale)
        D_diag.fill(1.0)
        multiply(D, D, D2)
        matmul(divide(L, D2, work), L, ML)
        out = empty(rows)
        out[0] = v
        multiply(multiply(L, L, work), 2.0, work)  # 2.0 * L**2
        divide(work, multiply(D2, D, D), work)
        add_reduce(work, 1, None, out[1])
        subtract(ML, ML_T, out[2:])
        return out.reshape(-1)

    # the dense output keeps the rows LevelFlow reads: E, then row 0 of L
    y1 = np.concatenate([E1, v1, L1.ravel()])
    sol = solve_ivp(rhs, (1.0, 0.0), y1, rtol=rtol, atol=atol,
                    rows=np.r_[0:dim, 2 * dim : 3 * dim])
    if sol.status != 0:
        raise IntegrationFailureError(f"level integration stopped: {sol.message}")
    return LevelFlow(pair, sol.sol)


def curvature_from_spectrum(es: ham.EigenSystem, bias: np.ndarray):
    """(c2_full, c2_pair) from eigenvectors (second-order perturbation sum).

    |l_0k|^2 / (E_k - E_0)^3 reduces to |<0|H_b|k>|^2 / (E_k - E_0), so this
    needs only one diagonalization.  Used as the fallback when the level
    equations hit a near-degeneracy, and as an independent cross-check.
    A stack of spectra (leading axes, as spectrum_at returns for an array
    of lam) gives arrays over the stack.
    """
    m = es.ground_couplings(bias)
    terms = 2.0 * m**2 / (es.energies[..., 1:] - es.energies[..., :1])
    return -terms.sum(axis=-1), -terms[..., 0]


def curvature_profile(pair: ham.HamiltonianPair, lams):
    """(c2_full, c2_pair, route) at each lam of the grid: the one choice of route.

    Tries the level-dynamics route first (route "level_dynamics"); if the
    instance sits too close to a level collision for the equations of
    motion, falls back to diagonalizing the grid and the perturbation sum
    (route "diagonalization"; always defined as long as the ground state
    itself stays separated).  Either route takes the grid one
    ham.chunk_slices chunk at a time, bitwise the whole grid at once, into
    1-D arrays over it.  A c2 that overflows or divides by a zero gap
    (energies near the float range's edge, a tied ground state) is refused
    with a SimulationError, without a RuntimeWarning.
    """
    lams = np.atleast_1d(ham.checked_lams(lams))  # refused before either route runs
    try:
        flow = solve_levels(pair)
    except (NearDegeneracyError, IntegrationFailureError):
        flow = None
    route = "diagonalization" if flow is None else "level_dynamics"
    c2_full, c2_pair = np.empty(lams.size), np.empty(lams.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        for part in ham.chunk_slices(lams.size, pair.dim):
            if flow is None:
                c2 = curvature_from_spectrum(ham.spectrum_at(pair, lams[part]), pair.bias)
            else:
                c2 = flow.curvatures(lams[part])
            c2_full[part], c2_pair[part] = c2
    if not (np.isfinite(c2_full).all() and np.isfinite(c2_pair).all()):
        raise SimulationError(f"the {route} route gave a non-finite curvature c2")
    return c2_full, c2_pair, route
