"""The in-package DOP853 and bounded minimizer against scipy's own, bitwise."""

import math
import re

import numpy as np
import pytest

from aqcsim import _scipy_port as port
from aqcsim import evolution as evo
from aqcsim import hamiltonians as ham
from aqcsim import spectral
from aqcsim.errors import IntegrationFailureError

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_optimize = pytest.importorskip("scipy.optimize")

CASES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]


@pytest.mark.parametrize("n, seed", CASES)
def test_level_solve_equals_scipy_dop853_bitwise(level_problem, n, seed):
    pair = ham.pair_from_seed(n, seed)
    flow, (rhs, t_span, y0), kwargs = level_problem(pair)
    rows = kwargs.pop("rows")
    ref = scipy_integrate.solve_ivp(
        rhs, t_span, y0, method="DOP853", dense_output=True, **kwargs)
    kept = port.solve_ivp(rhs, t_span, y0, rows=rows, **kwargs)
    full = port.solve_ivp(rhs, t_span, y0, rows=slice(None), **kwargs)
    for ours in (kept, full):
        assert (ours.nfev, ours.status, ours.message) == (ref.nfev, ref.status, ref.message)
        np.testing.assert_array_equal(ours.sol.ts, ref.t)
    dim = pair.dim
    plan = evo.build_schedule(pair, 256)
    for lams in (np.concatenate([plan.lams, plan.mids]), np.linspace(1.0, 0.0, 1024)):
        want = ref.sol(lams)
        np.testing.assert_array_equal(full.sol(lams), want)
        np.testing.assert_array_equal(kept.sol(lams), want[rows])
    # the ends, interior points and a step boundary, where the segment choice matters
    for lam in (1.0, 0.0, 0.3, plan.mids[7], ref.t[len(ref.t) // 2]):
        want = ref.sol(lam)
        np.testing.assert_array_equal(full.sol(lam), want)
        np.testing.assert_array_equal(kept.sol(lam), want[rows])
        np.testing.assert_array_equal(flow.energies(lam)[:, 0], want[:dim])


def _scan_targets(pair):
    """The gap and the negated coupling peak on the brackets adiabatic_time refines."""
    lams = np.linspace(0.0, 1.0, 201)
    es = ham.spectrum_at(pair, lams)

    def gap(lam):
        w = np.linalg.eigvalsh(ham.total_hamiltonian(pair, lam))
        return float(w[1] - w[0])

    def neg_coupling(lam):
        return -float(np.abs(ham.spectrum_at(pair, lam).ground_couplings(pair.bias)).max())

    gap_at = evo._bracket(lams, int(np.argmin(es.gap())))
    peak_at = evo._bracket(lams, int(np.argmax(np.abs(es.ground_couplings(pair.bias)).max(axis=1))))
    return [(gap, gap_at), (neg_coupling, peak_at)]


def _analytic_targets():
    """Minima inside, at either bound and at a kink, and a non-smooth and a flat function."""
    return [
        (lambda x: (x - 0.3) ** 2, (0.0, 1.0)),
        (lambda x: (x - 2.0) ** 2, (0.0, 1.0)),
        (lambda x: (x + 1.0) ** 2, (0.0, 1.0)),
        (lambda x: abs(x - 0.61), (0.0, 1.0)),
        (lambda x: math.cos(3.0 * x), (0.0, 2.0)),
        (lambda x: 1.0, (-1.0, 1.0)),
        (lambda x: x ** 4 - x ** 2, (-2.0, 0.5)),
    ]


@pytest.mark.parametrize("n, seed", CASES)
def test_bounded_minimizer_equals_scipy_bitwise(n, seed):
    targets = _scan_targets(ham.pair_from_seed(n, seed))
    if (n, seed) == CASES[0]:
        targets += _analytic_targets()
    for func, bounds in targets:
        for xatol in (1e-10, 1e-5):
            ref = scipy_optimize.minimize_scalar(
                func, bounds=bounds, method="bounded", options={"xatol": xatol})
            assert port.minimize_scalar_bounded(func, bounds, xatol) == (ref.x, ref.fun)


def _blow_up(t, y):
    # y = 1 / (t - 1 + 1 / y(1)) blows up before t = 0: the step size collapses
    return -(y**2)


def test_a_step_below_float_spacing_stops_as_scipy_does():
    y0 = np.array([2.0, 3.0])
    ours = port.solve_ivp(_blow_up, (1.0, 0.0), y0, rtol=1e-8, atol=1e-10, rows=slice(None))
    ref = scipy_integrate.solve_ivp(
        _blow_up, (1.0, 0.0), y0, method="DOP853", rtol=1e-8, atol=1e-10, dense_output=True)
    assert ours.status == ref.status == -1
    assert ours.message == ref.message == port.TOO_SMALL_STEP
    assert ours.nfev == ref.nfev
    np.testing.assert_array_equal(ours.sol.ts, ref.t)


def test_a_failed_level_solve_raises_integration_failure(monkeypatch):
    def failing(rhs, t_span, y0, rtol, atol, rows):
        return port.solve_ivp(_blow_up, t_span, np.full_like(y0, 2.0), rtol=rtol, atol=atol,
                              rows=rows)

    monkeypatch.setattr(spectral, "solve_ivp", failing)
    with pytest.raises(IntegrationFailureError, match=re.escape(port.TOO_SMALL_STEP)):
        spectral.solve_levels(ham.pair_from_seed(2, 1))

