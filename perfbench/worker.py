"""One benchmark process: import aqcsim, warm up, then run entries and report.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed S --seconds T --trace 0|1 --pool Q

run.py starts this script in a fresh interpreter so that set-up (interpreter
start, imports and one warm-up instance) is timed the way a user pays it.
The script prints "@@ready" after the warm-up, then "@@cal <seconds>", a
calibrate() sample that run.py corrects the set-up time by, and, unless
--setup-only, "@@result <json>" when it is done; run.py ignores any other
output.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads as wl
import spans as sp

# A shared host's speed can drift by tens of percent over stretches of tens
# of seconds, and every entry slows with it.  A fixed numpy loop, run
# between entries, measures that speed: each entry's wall time is divided by
# the mean of the loop times just before and after it and multiplied by
# CAL_NOMINAL_S, the loop's median time over the baseline runs (2 vCPU x86
# under KVM), so corrected times read as seconds at that typical speed.  The
# loop runs no aqcsim code; state an entry leaves in the process could still
# move it, which the traced run's bench.calibration_s shows.
CAL_NOMINAL_S = 0.040
_rng = np.random.default_rng(2013)
_SYM4 = _rng.standard_normal((4, 4))
_SYM4 += _SYM4.T
_SYM32 = _rng.standard_normal((32, 32))
_SYM32 += _SYM32.T
_VEC32 = _rng.standard_normal(32) + 0j
_LEVELS = np.sort(_rng.standard_normal(32)) * 10.0
_COUPLING = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))


def calibrate() -> float:
    """Seconds for a fixed loop shaped like aqcsim's work.

    Small symmetric eigendecompositions with eigenframe steps (the plan and
    propagation) and the dense complex algebra of one level-equation
    right-hand side (the ODE).  The loop runs three times and the fastest
    time, scaled to the whole, is returned, so a momentary hiccup does not
    count as drift.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(_SYM4)
            vecs = np.linalg.eigh(_SYM32)[1]
            psi = _VEC32
            for _ in range(20):
                psi = vecs @ (np.exp(-0.01j) * (vecs.T @ psi))
        for _ in range(50):
            diff = _LEVELS[:, None] - _LEVELS[None, :]
            np.fill_diagonal(diff, 1.0)
            weight = 1.0 / diff**2
            accel = (2.0 * np.abs(_COUPLING) ** 2 / diff**3).sum(axis=1)
            flow = (_COUPLING * weight) @ _COUPLING - _COUPLING @ (_COUPLING * weight.T)
            np.concatenate([_LEVELS.astype(complex), accel.astype(complex), flow.ravel()])
        best = min(best, time.perf_counter() - t0)
    return 3.0 * best


def corrected(seconds: float, before: float, after: float) -> float:
    """A wall time at nominal host speed, from the loop times around it."""
    return seconds * 2.0 * CAL_NOMINAL_S / (before + after)


def warm_up(workload: wl.Workload, cli) -> None:
    """One instance through the workload's own code path.

    For time-to-target it is one n = 5 instance (the largest the workload
    runs), so that the first timed entry does not pay for the process's
    first large level-ODE solve.
    """
    out_dir = os.path.join(wl.OUT_DIR, f"warmup-{os.getpid()}")
    if workload.name == "ttt_scaling":
        from aqcsim import experiments as xp

        pair = xp.make_instance(5, wl.WARMUP_SEED)
        xp.time_to_target(pair, "feedback", 0.9, steps=1024)
    elif wl.run_command(cli, workload.argv(wl.WARMUP_SEED), out_dir) != 0:
        raise SystemExit(f"perfbench: warm-up of {workload.name} failed")


def schedule(costs: dict, seed: int, strata: int):
    """Pool entries in a seeded order that spreads every run over all costs.

    The pool is ranked by the seconds each entry took on the seed code and
    cut into `strata` groups of (nearly) equal size.  Each round takes one
    unused entry from every group, in a seeded order, so the spread in cost
    between entries does not decide a run's median; the rounds repeat if
    the run outlasts the pool.
    """
    rng = random.Random(seed)
    ranked = sorted(costs, key=lambda s: (costs[s], s))
    bounds = [len(ranked) * g // strata for g in range(strata + 1)]
    groups = [ranked[a:b] for a, b in zip(bounds, bounds[1:])]
    for group in groups:
        rng.shuffle(group)
    order = []
    for r in range(max(map(len, groups))):
        picks = [group[r] for group in groups if r < len(group)]
        rng.shuffle(picks)
        order += picks
    return itertools.cycle(order)


class Runner:
    """Runs entries, times them and checks each output against the reference."""

    def __init__(self, workload: wl.Workload, cli, reference: dict):
        self.workload = workload
        self.cli = cli
        self.reference = reference
        self.out_dir = os.path.join(wl.OUT_DIR, f"{workload.name}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0

    def run(self, seed: int) -> float:
        argv = self.workload.argv(seed)
        ops = self.workload.operations
        t0 = time.perf_counter()
        try:
            code = wl.run_command(self.cli, argv, self.out_dir)
        except Exception:  # an escaped exception fails the entry, not the run
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t0
        verdicts = [False] * ops
        if code == 0:
            csv = os.path.join(self.out_dir, self.workload.csv)
            try:
                verdicts = wl.check_entry(self.workload, csv, self.reference[seed])
            except (wl.CheckError, OSError) as err:
                print(f"perfbench: seed {seed}: {err}", file=sys.stderr)
        else:
            print(f"perfbench: seed {seed}: exit code {code}", file=sys.stderr)
        self.attempted += ops
        self.failed += ops - sum(map(bool, verdicts[:ops]))
        return seconds


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def measure(runner: Runner, order, seconds: float, costs: dict) -> dict:
    """Entries for `seconds`, each corrected for drift and for its own cost.

    Runs draw different entries, whose seed-code times differ by up to 2x.
    So each corrected time is divided by its entry's seed-code time in the
    reference and multiplied by the pool's median seed-code time: wall_s is
    the time of a typical entry, whichever entries a run drew.
    """
    typical = statistics.median(costs.values())
    entries, scaled, relative = [], [], []
    calibrate()  # the first call pays for lazy set-up in numpy and BLAS
    start = time.perf_counter()
    before = calibrate()
    while time.perf_counter() - start < seconds:
        seed = next(order)
        raw = runner.run(seed)
        after = calibrate()
        entries.append((seed, raw, before, after))
        scaled.append(corrected(raw, before, after))
        relative.append(scaled[-1] * typical / costs[seed])
        before = after
    return {
        "wall_s": quartiles(relative),
        "corrected_wall_s": quartiles(scaled),
        "raw_wall_s": quartiles([e[1] for e in entries]),
        "calibration_s": quartiles([e[3] for e in entries]),
        "entries": entries,  # (seed, wall s, loop s before, loop s after)
    }


def measure_traced(runner: Runner, order, entries: int, trace_path: str) -> dict:
    """Each entry run untraced and traced, in alternating order, with loop
    samples before, between and after, so both halves of a pair are
    corrected for drift the same way."""
    plain, traced, raw_plain, loops, reps, lines = [], [], [], [], [], []
    absent: list = []
    calibrate()  # the first call pays for lazy set-up in numpy and BLAS
    before = calibrate()
    for i in range(entries):
        seed = next(order)
        recorder = sp.Recorder()
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with sp.Installed(recorder) as installed:
                    root = recorder.begin("bench.rep")
                    try:
                        raw = runner.run(seed)
                    finally:
                        recorder.end(root)
                absent = installed.absent
            else:
                raw = runner.run(seed)
                raw_plain.append(raw)
            after = calibrate()
            loops.append(after)
            (traced if traced_turn else plain).append(corrected(raw, before, after))
            before = after
        reps.append(recorder.spans)
        lines += sp.instance_lines(
            recorder.spans, workload=runner.workload.name, entry_seed=seed)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    overhead = quartiles([t - p for t, p in zip(traced, plain)])
    layers = sp.layer_metrics(sp.concat(reps))
    layers["trace.overhead_s"] = overhead["median"]
    layers["bench.raw_wall_s"] = statistics.median(raw_plain)
    layers["bench.calibration_s"] = statistics.median(loops)
    return {
        "layers": layers,
        "absent_spans": absent,
        "trace_overhead_s": overhead,
        "traced_wall_s": quartiles(traced),
        "wall_s": quartiles(plain),
        "raw_wall_s": quartiles(raw_plain),
        "calibration_s": quartiles(loops),
        "trace_file": os.path.relpath(trace_path, wl.ROOT),
    }


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=int, choices=wl.POOLS, default=wl.DEFAULT_POOL)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    cli = wl.import_cli()
    warm_up(workload, cli)
    print("@@ready", flush=True)
    # the host's speed just after set-up, which run.py corrects set-up time by
    calibrate()
    print(f"@@cal {statistics.median(calibrate() for _ in range(3))!r}", flush=True)
    if args.setup_only:
        return 0

    reference, costs = wl.load_reference(workload, args.pool)
    runner = Runner(workload, cli, reference)
    order = schedule(costs, args.seed, workload.strata)
    if args.trace:
        # A fixed number of entries, each run traced and untraced, taking about
        # `seconds` on the seed code; the counts then repeat exactly for a
        # given seed and length.
        entries = max(2, round(args.seconds / (2 * statistics.median(costs.values()))))
        trace_path = os.path.join(
            wl.OUT_DIR, f"{workload.name}-seed{args.seed}.trace.jsonl")
        result = measure_traced(runner, order, entries, trace_path)
    else:
        result = measure(runner, order, args.seconds, costs)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_facts(),
    )
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
