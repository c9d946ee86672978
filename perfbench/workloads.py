"""The three benchmark workloads: their CLI commands and output checks.

Every workload is a list of *entries*.  One entry is one `aqcsim` command on
one seeded input, run in-process through `aqcsim.cli.main`; its CSV is
checked against a reference table produced by the unmodified seed code and
committed under `reference/`.  Entry `i` of pool `Q` uses seed `Q * 1000 + i`
(a `--master-seed` for the ensembles, an instance `--seed` for the profile).
Pool 7 is the default; pool 11 is held out for confirming claims.

Tolerances come from the accuracy the program states, not from today's bits:
P and dP to 1e-9, time-to-target T within the scan's `rtol` of 0.01, the
curvature profile to 1e-6 of its peak (100x the level integrator's `rtol` of
1e-8, for global error accumulation), and identical exclusion status.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import os
import sys
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_POOL = 7
HELDOUT_POOL = 11
POOLS = (DEFAULT_POOL, HELDOUT_POOL)

K_GRID = "3e-3:3:13"
T_RTOL = 0.01  # time_to_target's default bracket tolerance
P_TOL = 1e-9
C2_TOL = 1e-6
WARMUP_SEED = 999  # fixed input of the set-up warm-up, outside every pool


def entry_seed(pool: int, index: int) -> int:
    return pool * 1000 + index


def import_cli():
    """aqcsim.cli from the checkout's own `src/`, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aqcsim", "__init__.py")):
        raise SystemExit(f"perfbench: no aqcsim package under {src}")
    sys.path.insert(0, src)
    from aqcsim import cli

    return cli


def run_command(cli, argv: list, out_dir: str) -> int:
    """One aqcsim command in this process; its progress line is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, "--out", out_dir])


class CheckError(ValueError):
    """A CSV that cannot be compared at all (wrong shape or header)."""


def read_csv(path: str, header: tuple) -> list:
    """Rows of a CSV written by aqcsim, numbers parsed, header checked."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != header:
        raise CheckError(f"{path}: header {lines[:1]} is not {','.join(header)}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{path}: row {line!r} has {len(cells)} cells")
        rows.append([_number_or_label(c) for c in cells])
    return rows


def _number_or_label(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(got: float, want: float, tol: float) -> bool:
    """Both NaN (an excluded cell) or both finite and within tol."""
    if math.isnan(want):
        return math.isnan(got)
    return math.isfinite(got) and abs(got - want) <= tol


def check_scaling(rows: list, ref: list) -> list:
    """One verdict per qubit count: both controllers' rows within tolerance."""
    if len(rows) != len(ref):
        raise CheckError(f"{len(rows)} rows, reference has {len(ref)}")
    verdicts: dict = {}
    for got, want in zip(rows, ref):
        n, fam, mean_t, std_t, count = got
        ok = (
            n == want[0] and fam == want[1] and count == want[4]
            and _close(mean_t, want[2], T_RTOL * abs(want[2]))
            # each T moves by at most rtol, so the std moves by at most rtol * rms(T)
            and _close(std_t, want[3], T_RTOL * math.hypot(want[2], want[3]))
        )
        verdicts[want[0]] = verdicts.get(want[0], True) and ok
    return list(verdicts.values())


def check_deltap(rows: list, ref: list) -> list:
    """One verdict per gain value k."""
    if len(rows) != len(ref):
        raise CheckError(f"{len(rows)} rows, reference has {len(ref)}")
    return [
        _close(got[0], want[0], 1e-12 * want[0]) and got[3] == want[3]
        and _close(got[1], want[1], P_TOL * max(1.0, abs(want[1])))
        and _close(got[2], want[2], P_TOL * max(1.0, abs(want[2])))
        for got, want in zip(rows, ref)
    ]


def check_profile(rows: list, ref: dict) -> list:
    """One verdict for the whole profile of the instance."""
    arr = np.asarray(rows, dtype=float)
    want_full, want_pair = _unpack(ref["c2_full"]), _unpack(ref["c2_pair"])
    if arr.shape != (want_full.size, 3):
        raise CheckError(f"profile shape {arr.shape}, reference has {want_full.size} rows")
    tol = C2_TOL * float(np.max(np.abs(want_full)))
    lams = np.linspace(1.0, 0.0, want_full.size)
    ok = (
        np.all(np.isfinite(arr))
        and np.all(np.abs(arr[:, 0] - lams) <= 1e-12)
        and np.all(np.abs(arr[:, 1] - want_full) <= tol)
        and np.all(np.abs(arr[:, 2] - want_pair) <= tol)
    )
    return [bool(ok)]


def _profile_record(rows: list) -> dict:
    arr = np.asarray(rows, dtype=float)
    return {"c2_full": _pack(arr[:, 1]), "c2_pair": _pack(arr[:, 2])}


def _pack(values: np.ndarray) -> str:
    # float32 keeps 7 significant digits, well inside the 1e-6-of-peak tolerance
    raw = np.asarray(values, dtype="<f4").tobytes()
    return base64.b64encode(zlib.compress(raw, 9)).decode("ascii")


def _unpack(text: str) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype="<f4").astype(float)


def _scaling_argv(seed) -> list:
    return ["scaling", "--n-values", "2,3,4,5", "--samples", "1",
            "--steps", "1024", "--target-p", "0.9", "--master-seed", str(seed),
            "--workers", "0"]


def _deltap_argv(seed) -> list:
    return ["deltap", "--n", "2", "--samples", "1", "--k-grid", K_GRID,
            "--steps", "1024", "--master-seed", str(seed), "--workers", "0"]


def _profile_argv(seed) -> list:
    return ["profile", "--n", "5", "--resolution", "1024", "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable  # seed -> aqcsim command line of one entry
    csv: str
    header: tuple
    check: Callable  # (rows, stored record) -> one verdict per operation
    operations: int  # per entry; all fail when the command itself fails
    record: Callable  # rows -> what the reference file stores
    pool_sizes: dict  # pool -> number of entries with a reference
    strata: int  # cost groups a run's schedule draws from in turn

    def reference_path(self) -> str:
        return os.path.join(REFERENCE_DIR, f"{self.name}.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ttt_scaling", _scaling_argv, "fig3_scaling.csv",
                 ("n", "controller", "meanT", "stdT", "count"), check_scaling,
                 operations=4, record=list,
                 pool_sizes={DEFAULT_POOL: 48, HELDOUT_POOL: 16}, strata=6),
        Workload("gain_sweep", _deltap_argv, "fig4_deltap.csv",
                 ("k", "mean_dP", "std_dP", "count"), check_deltap,
                 operations=13, record=list,
                 pool_sizes={DEFAULT_POOL: 128, HELDOUT_POOL: 32}, strata=16),
        Workload("profile_n5", _profile_argv, "profile.csv",
                 ("lambda", "c2_full", "c2_pair"), check_profile,
                 operations=1, record=_profile_record,
                 pool_sizes={DEFAULT_POOL: 48, HELDOUT_POOL: 16}, strata=8),
    )
}


def load_reference(workload: Workload, pool: int) -> tuple[dict, dict]:
    """(seed -> stored record, seed -> seed-code seconds) for one pool."""
    with open(workload.reference_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["pools"].get(str(pool))
    if entries is None:
        raise CheckError(f"{workload.name}: no reference for pool {pool}")
    records = {int(seed): rec for seed, rec in entries.items()}
    costs = {seed: doc["seconds"][str(seed)] for seed in records}
    return records, costs


def check_entry(workload: Workload, csv_path: str, ref_record) -> list:
    """Per-operation verdicts for one finished entry."""
    return workload.check(read_csv(csv_path, workload.header), ref_record)
