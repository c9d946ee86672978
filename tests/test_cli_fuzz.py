"""The CLI's numerical-failure paths under random instances: exit 0 with finite output, or 3 and nothing."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqcsim import cli
from aqcsim import evolution as evo
from aqcsim import spectral

# an n = 2 problem whose minimum gap squared overflows: its adiabatic time has no finite value
_GAP_SQUARE_OVERFLOWS = (1.8976573441440942e270, -3.131609715724274e-214, -1.5476340718728332e269)
# an n = 1 problem whose minimum gap squared underflows to 0
_GAP_SQUARE_UNDERFLOWS = (-8.80899680437482e-179,)
# an n = 3 problem with tied ground states, whose rotation bisection alone takes 161,564 cells
_TIED_N3 = (-2.7073059950688183e87, 8.823280889232753e131, 2.1954820977704256e201,
            1.3387405515545478e-131, -1.3517621996884554e-171, -3.97034311557689e83,
            -1.0786980335118326e183)

_COMMANDS = {
    "profile": ["profile", "--resolution", "16"],
    "run-linear": ["run", "--controller", "linear", "--t-total", "1", "--steps", "32"],
    "run-feedback": ["run", "--controller", "feedback", "--k", "0.1", "--steps", "32"],
    "sweep-t": ["sweep-t", "--t-points", "3", "--steps", "32"],
}


def _instance_flags(epsilon) -> list:
    # a value that starts with "-" is taken for a flag unless it is joined to its own
    n = (len(epsilon) + 1).bit_length() - 1
    return ["--n", str(n), "--epsilon=" + ",".join(repr(float(x)) for x in epsilon)]


def _refuse_non_finite(token: str):
    raise AssertionError(f"manifest.json holds {token}")


def _assert_every_written_float_is_finite(out: Path) -> None:
    for path in out.iterdir():
        text = path.read_text()
        if path.name == "manifest.json":
            json.loads(text, parse_constant=_refuse_non_finite)
            continue
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a controller name
                assert math.isfinite(value), f"{path.name}: {line}"


# |epsilon| log-uniform over [1e-300, 1e300], either sign, n = 1..3
_COUPLING = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                      st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0))
_EPSILON = st.integers(1, 3).flatmap(
    lambda n: st.lists(_COUPLING, min_size=2**n - 1, max_size=2**n - 1))


@settings(max_examples=60, deadline=5000, derandomize=True, database=None)
@given(epsilon=_EPSILON)
@example(epsilon=_GAP_SQUARE_OVERFLOWS)
@example(epsilon=_GAP_SQUARE_UNDERFLOWS)
@example(epsilon=_TIED_N3)
def test_every_command_exits_0_with_finite_output_or_3_writing_nothing(epsilon):
    for name, argv in _COMMANDS.items():
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "o"
            code = cli.main([*argv, *_instance_flags(epsilon), "--out", str(out)])
            assert code in (0, 3), (name, code)
            if code == 0:
                _assert_every_written_float_is_finite(out)
            else:
                assert not out.exists(), name


def test_sweep_t_of_a_gap_whose_square_overflows_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    argv = [*_COMMANDS["sweep-t"], *_instance_flags(_GAP_SQUARE_OVERFLOWS), "--out", str(out)]
    assert cli.main(argv) == 3
    assert "numerical failure: no finite adiabatic time" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_tied_pair_is_refused_before_any_plan_curvature_or_scan(
    tmp_path, capsys, monkeypatch, command
):
    def work(*args, **kwargs):
        raise AssertionError("work started on a tied pair")

    for module, name in ((evo, "build_schedule"), (evo, "adiabatic_time"),
                         (spectral, "curvature_profile")):
        monkeypatch.setattr(module, name, work)
    out = tmp_path / "o"
    argv = [*_COMMANDS[command], *_instance_flags(_TIED_N3), "--out", str(out)]
    assert cli.main(argv) == 3
    assert "numerical failure: tied ground states" in capsys.readouterr().err
    assert not out.exists()
