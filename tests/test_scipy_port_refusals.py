"""The in-package DOP853 and bounded minimizer refuse the inputs they do not support."""

import math

import numpy as np
import pytest

from aqcsim._scipy_port import minimize_scalar_bounded, solve_ivp


def _never_called(*args):
    raise AssertionError("called before the input was checked")


@pytest.mark.parametrize(
    "t_span, y0, match",
    [((0.0, 1.0), [1.0], "t_span must descend"),
     ((1.0, 1.0), [1.0], "t_span must descend"),
     ((1.0, 0.0), [1.0, math.nan], "finite 1-D"),
     ((1.0, 0.0), [math.inf], "finite 1-D"),
     ((1.0, 0.0), [[1.0, 2.0]], "finite 1-D"),
     ((1.0, 0.0), 1.0, "finite 1-D")],
    ids=["ascending", "empty", "nan-y0", "inf-y0", "2-d-y0", "0-d-y0"],
)
def test_solve_ivp_refuses_before_the_first_evaluation(t_span, y0, match):
    with pytest.raises(ValueError, match=match):
        solve_ivp(_never_called, t_span, np.asarray(y0), rtol=1e-8, atol=1e-10,
                  rows=slice(None))


@pytest.mark.parametrize(
    "bounds, match",
    [((0.0, math.inf), "must be finite"),
     ((math.nan, 1.0), "must be finite"),
     ((-math.inf, 0.0), "must be finite"),
     ((1.0, 0.0), "lower bound exceeds")],
    ids=["inf-upper", "nan-lower", "inf-lower", "reversed"],
)
def test_minimize_scalar_bounded_refuses_before_the_first_evaluation(bounds, match):
    with pytest.raises(ValueError, match=match):
        minimize_scalar_bounded(_never_called, bounds, xatol=1e-10)


def test_solve_ivp_stops_at_once_on_a_nan_right_hand_side():
    calls = []

    def nan_rhs(t, y):
        calls.append(t)
        if len(calls) > 10_000:  # a regression fails here instead of spinning forever
            raise AssertionError("the solve kept stepping on NaN")
        return np.full_like(y, np.nan)

    res = solve_ivp(nan_rhs, (1.0, 0.0), np.array([1.0]), rtol=1e-8, atol=1e-10,
                    rows=slice(None))
    assert res.status == -1 and res.nfev == len(calls) <= 10


def test_solve_ivp_stops_on_an_infinite_right_hand_side():
    calls = []

    def inf_rhs(t, y):
        calls.append(t)
        if len(calls) > 10_000:  # a regression fails here instead of spinning forever
            raise AssertionError("the solve kept stepping on inf")
        return np.full_like(y, np.inf)

    # the initial-step heuristic and the error norm turn inf into NaN on the way, as
    # scipy's do; the warnings that arithmetic raises are not what this test checks
    with np.errstate(invalid="ignore", over="ignore"):
        res = solve_ivp(inf_rhs, (1.0, 0.0), np.array([1.0]), rtol=1e-8, atol=1e-10,
                        rows=slice(None))
    assert res.status == -1 and res.nfev == len(calls) <= 20
