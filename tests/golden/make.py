"""Record, or check, the golden outputs of a fixed set of CLI commands.

Each case in CASES is one `aqcsim` command.  Its CSV tables and the
`results` block of its manifest.json are stored as tests/golden/<case>/
<file>, and `results.json` holds the results block re-serialized with
json.dumps (floats as repr, so round-trip exact).

    python tests/golden/make.py           # rewrite every golden file
    python tests/golden/make.py --check   # rerun and compare bitwise

`--check` exits 1 and names each file that differs.  Bitwise equality holds
on the machine that recorded the files; other BLAS builds may move the last
digits, which tests/test_golden.py tolerates (and this mode does not).  A
change that moves outputs on purpose regenerates the files and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from aqcsim import cli  # noqa: E402

_SEEDS = (1, 2)
_SIZES = (2, 3, 4, 5)
_TRAJECTORY = ("--steps", "256", "--sample-stride", "32")

CASES = {
    # the criterion 9 commands
    "criterion9-sweep-t": ("sweep-t", "--n", "2", "--seed", "8", "--t-points", "4",
                           "--steps", "256"),
    "criterion9-scaling": ("scaling", "--n-values", "2,3,4", "--samples", "2",
                           "--master-seed", "3", "--steps", "256"),
    "criterion9-deltap": ("deltap", "--n", "2", "--samples", "3", "--k-grid",
                          "0.03,0.1,0.3", "--steps", "256", "--master-seed", "3"),
    "scaling-n2345": ("scaling", "--n-values", "2,3,4,5", "--samples", "2",
                      "--steps", "256"),
    "deltap-n3": ("deltap", "--n", "3", "--samples", "2", "--steps", "256"),
    **{
        f"profile-n{n}-seed{seed}": ("profile", "--n", str(n), "--seed", str(seed),
                                     "--resolution", "128")
        for n in _SIZES for seed in _SEEDS
    },
    **{
        f"run-linear-n{n}-seed{seed}": ("run", "--n", str(n), "--seed", str(seed),
                                        "--controller", "linear", "--t-total", "2",
                                        *_TRAJECTORY)
        for n in _SIZES for seed in _SEEDS
    },
    **{
        f"run-feedback-n{n}-seed{seed}": ("run", "--n", str(n), "--seed", str(seed),
                                          "--controller", "feedback", "--k", "0.1",
                                          *_TRAJECTORY)
        for n in _SIZES for seed in _SEEDS
    },
    # an exactly degenerate excited pair: the diagonalization route
    "profile-degenerate": ("profile", "--n", "2", "--epsilon", "1,1,0",
                           "--resolution", "128"),
    "run-feedback-degenerate": ("run", "--n", "2", "--epsilon", "1,1,0",
                                "--controller", "feedback", "--k", "0.05", *_TRAJECTORY),
    # a weak problem: |c2| falls below the default pace floor near lam = 1
    "run-feedback-floor": ("run", "--n", "2", "--epsilon", "0.05,0.1,-0.03",
                           "--controller", "feedback", "--k", "0.1", *_TRAJECTORY),
}


def run_case(argv) -> dict:
    """file name -> text of every CSV the command writes, plus results.json."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        if code != 0:
            raise RuntimeError(f"aqcsim {' '.join(argv)} exited {code}")
        files = {p.name: p.read_text() for p in sorted(Path(out).glob("*.csv"))}
        manifest = json.loads((Path(out) / "manifest.json").read_text())
    files["results.json"] = json.dumps(manifest.get("results", {}), indent=2) + "\n"
    return files


def recorded(case: str) -> dict:
    """file name -> text of the golden files of one case."""
    return {p.name: p.read_text() for p in sorted((GOLDEN / case).iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the recorded files instead of writing them")
    args = parser.parse_args(argv)
    differ = []
    for case, command in CASES.items():
        files = run_case(command)
        if args.check:
            want = recorded(case) if (GOLDEN / case).is_dir() else {}
            differ += [
                f"{case}/{name}" for name in sorted(set(files) | set(want))
                if files.get(name) != want.get(name)
            ]
            continue
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir()
        for name, text in files.items():
            (GOLDEN / case / name).write_text(text)
    stale = sorted(
        p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name not in CASES
        and p.name != "__pycache__"
    )
    if args.check:
        for name in differ:
            print(f"differs: {name}")
        for name in stale:
            print(f"no such case: {name}")
        print(f"{len(CASES)} cases, {len(differ)} files differ")
        return 1 if differ or stale else 0
    for name in stale:
        shutil.rmtree(GOLDEN / name)
    print(f"wrote {len(CASES)} cases under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
