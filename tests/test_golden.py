"""Rerun the golden command set (tests/golden/make.py) and compare with the recorded files.

Headers, row counts, labels, integer counts, exclusion reasons and
curvature routes must match exactly.  Floats must agree within 1e-12 of
the larger of the two values, or of the column's largest magnitude, so a
value that is itself roundoff-small is not held to digits that no BLAS
build promises.  norm_drift is roundoff: it is held to a bound, not to its
digits.  A time-to-target mean off by the order of the scan tolerance
_RTOL is a flipped scan decision, and is reported as one.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from aqcsim import experiments as xp

_spec = importlib.util.spec_from_file_location(
    "golden_make", Path(__file__).parent / "golden" / "make.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_RELATIVE = 1e-12
_DRIFT_BOUND = 1e-10
# columns that hold time-to-target scan results
_SCAN_COLUMNS = {("fig3_scaling.csv", "meanT"), ("fig3_scaling.csv", "stdT")}


def _number(text: str):
    """int for an integer literal, float for any other number, None for a label."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= _RELATIVE * max(abs(got), abs(want), scale)


def _compare_csv(case: str, name: str, got_text: str, want_text: str) -> list:
    got = list(csv.reader(io.StringIO(got_text)))
    want = list(csv.reader(io.StringIO(want_text)))
    if got[0] != want[0]:
        return [f"{case}/{name}: header {got[0]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{case}/{name}: {len(got) - 1} rows, recorded {len(want) - 1}"]
    header, problems = want[0], []
    parsed_want = [[_number(cell) for cell in row] for row in want[1:]]
    for j, column in enumerate(header):
        floats = [row[j] for row in parsed_want if isinstance(row[j], float)]
        scale = max((abs(x) for x in floats if math.isfinite(x)), default=0.0)
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            g, w = _number(g_row[j]), parsed_want[i - 1][j]
            where = f"{case}/{name} row {i} {column}"
            if not isinstance(w, float) or not isinstance(g, float):
                if g_row[j] != w_row[j]:
                    problems.append(f"{where}: {g_row[j]!r} != recorded {w_row[j]!r}")
            elif not _close(g, w, scale):
                rel = abs(g - w) / max(abs(w), 1e-300)
                if (name, column) in _SCAN_COLUMNS and rel < 5 * xp._RTOL:
                    problems.append(
                        f"{where}: {g!r} != recorded {w!r} (off by {rel:.2%}, of the order "
                        f"of the scan tolerance _RTOL = {xp._RTOL:g}: a flipped "
                        f"time-to-target decision, not roundoff)"
                    )
                else:
                    problems.append(f"{where}: {g!r} != recorded {w!r} (off by {rel:.3g})")
    return problems


def _compare_results(path: str, got, want) -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != recorded {sorted(want)}"]
        return [p for key in want for p in _compare_results(f"{path}.{key}", got[key], want[key])]
    if path.endswith(".norm_drift"):
        if not (isinstance(got, float) and 0 <= got <= _DRIFT_BOUND):
            return [f"{path}: {got!r} is not a roundoff drift (bound {_DRIFT_BOUND:g})"]
        return []
    if isinstance(want, float) and isinstance(got, float):
        if not _close(got, want, 0.0):
            return [f"{path}: {got!r} != recorded {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != recorded {want!r}"]
    return []


@pytest.mark.parametrize("case", list(golden.CASES))
def test_outputs_match_the_golden_files(case):
    want = golden.recorded(case)
    got = golden.run_case(golden.CASES[case])
    assert sorted(got) == sorted(want), f"{case}: files {sorted(got)} != {sorted(want)}"
    problems = []
    for name in want:
        if name == "results.json":
            problems += _compare_results(
                f"{case}/results", json.loads(got[name]), json.loads(want[name])
            )
        else:
            problems += _compare_csv(case, name, got[name], want[name])
    assert not problems, "\n".join(problems[:20])
