"""Benchmark of aqcsim's ensemble workloads: one command per workload and run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--pool Q]

Run it from the root of a checkout; it imports aqcsim from that checkout's
`src/`.  With --trace 0 it times set-up five times, each in a fresh process
(interpreter start, imports, one warm-up instance), then keeps the last
process running entries for S seconds.  It reports set-up time and the
median wall time of an entry, both corrected for host speed drift (the
entry time also for the entry's own cost, see worker.py), and the
process's peak resident memory.  With --trace 1 it runs a fixed number
of entries, each once with spans recorded and once without, and reports
the per-layer metrics.  Every entry's output is checked against the
committed reference.  The last line printed is one
JSON object; the full result, with quartiles, sample counts and machine
facts, goes to .bench_out/.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import spans
import workloads as wl
from worker import calibrate, corrected

SETUP_RUNS = 5
# The workloads are serial.  BLAS threads would only spin on the second core
# of a small shared machine and slow the first, so they are pinned to one
# unless the caller sets them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LIMIT_S = 150.0  # a set-up this slow has hung; normal is 1-3 s


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker.py process whose lines are read with a deadline."""

    def __init__(self, args: list):
        env = {**{var: "1" for var in THREAD_VARS}, **os.environ}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(wl.HERE, "worker.py"), *args],
            cwd=wl.ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        self._timer: threading.Timer | None = None

    def expect(self, tag: str, limit_s: float) -> str:
        """The rest of the first line starting with tag; kills the worker after limit_s."""
        self._timer = threading.Timer(limit_s, self.proc.kill)
        self._timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(tag):
                    return line[len(tag):].strip()
        finally:
            self._timer.cancel()
        raise WorkerError(f"worker ended without {tag!r} (exit {self.proc.wait()})")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run(args) -> dict:
    common = ["--workload", args.workload]
    measuring = [*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--pool", str(args.pool)]
    setup_runs = 1 if args.trace else SETUP_RUNS
    setups, raw = [], []
    calibrate()  # the first call pays for lazy set-up in numpy and BLAS
    for i in range(setup_runs):
        last = i == setup_runs - 1
        before = statistics.median(calibrate() for _ in range(3))
        worker = Worker(measuring if last else [*common, "--setup-only"])
        try:
            worker.expect("@@ready", SETUP_LIMIT_S)
            raw.append(time.perf_counter() - worker.started)
            # corrected by the loop just before the process and just after its set-up
            setups.append(corrected(raw[-1], before, float(worker.expect("@@cal", 30.0))))
            if last:
                result = json.loads(worker.expect("@@result", args.seconds + 120.0))
            elif worker.proc.wait(timeout=30) != 0:
                raise WorkerError(f"set-up worker exit code {worker.proc.returncode}")
        finally:
            worker.stop()
    result["setup_s"] = {"median": statistics.median(setups), "samples": setups,
                         "raw_median": statistics.median(raw), "raw_samples": raw}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pool", type=int, choices=wl.POOLS, default=wl.DEFAULT_POOL,
                        help=f"input pool: {wl.DEFAULT_POOL} (default) or "
                             f"{wl.HELDOUT_POOL} (held out for confirming claims)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    package = os.path.join(wl.ROOT, "src", "aqcsim", "__init__.py")
    if not os.path.isfile(package):
        print(f"perfbench: {package} not found; run from a checkout", file=sys.stderr)
        return 2

    try:
        result = run(args)
    except (WorkerError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, pool=args.pool)
    result["machine"]["git_commit"] = git_commit()

    wall = result["wall_s"]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": wall["median"], "unit": "s"},
            "setup_s": {"value": result["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    path = os.path.join(wl.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    machine = result["machine"]
    print(f"machine: nproc {machine['nproc']}, python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, "
          f"numba {'present' if machine['numba_present'] else 'absent'}, "
          f"blas {machine['blas']['name']} {machine['blas']['version']}, "
          f"commit {machine['git_commit']}")
    raw = result.get("raw_wall_s", wall)
    print(f"{args.workload}: {wall['count']} entries, raw wall median {raw['median']:.4f} s "
          f"(quartiles {raw['q1']:.4f}..{raw['q3']:.4f} s), corrected median "
          f"{wall['median']:.4f} s (quartiles {wall['q1']:.4f}..{wall['q3']:.4f} s); "
          f"set-up {result['setup_s']['raw_median']:.4f} s raw; "
          f"{result['failed']}/{result['attempted']} operations failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"full result: {os.path.relpath(path, wl.ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
