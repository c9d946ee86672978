import numpy as np
import pytest

from aqcsim import experiments as xp
from aqcsim import hamiltonians as ham
from aqcsim import spectral


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Recorder for the gate tests: one pass/fail line per criterion.

    The lines are replayed in the terminal summary so the verdict survives
    pytest's output capture.
    """

    def record(number: int, name: str, ok: bool, detail: str = "") -> bool:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number} [{verdict}] {name}"
        if detail:
            line += f" -- {detail}"
        request.config._acceptance_lines.append((number, line))
        print(line)
        return ok

    return record


@pytest.fixture
def degenerate_seed(monkeypatch):
    """Call with one or more seeds to make experiments.make_instance return all
    couplings zero (tied ground states) for those seeds."""
    real = xp.make_instance

    def make_degenerate(*targets):
        def make_instance(n, seed):
            if seed in targets:
                return ham.make_pair(n, np.zeros(2**n - 1), seed)
            return real(n, seed)

        monkeypatch.setattr(xp, "make_instance", make_instance)

    return make_degenerate


@pytest.fixture
def level_problem(monkeypatch):
    """Call with a pair: solve_levels' flow, and the positional and keyword
    arguments it hands to spectral.solve_ivp."""

    def solve(pair):
        calls = []
        real = spectral.solve_ivp

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "solve_ivp", record)
            flow = spectral.solve_levels(pair)
        ((args, kwargs),) = calls
        return flow, args, kwargs

    return solve


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sorted(getattr(config, "_acceptance_lines", []))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in lines:
        terminalreporter.write_line(line)
