"""Regenerate the reference tables the benchmark checks its outputs against.

Run from the repository root on the code whose outputs define "correct"
(the tables under reference/ came from the unmodified seed code):

    python3 perfbench/make_reference.py

Each entry's CSV is stored with its seed, and so is the entry's wall time
on the generating machine: run schedules rank the pool by it (see
worker.schedule) and size traced runs from its median.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads as wl


def build(workload: wl.Workload, cli) -> dict:
    out_dir = os.path.join(wl.OUT_DIR, "reference", workload.name)
    pools, seconds = {}, {}
    for pool, size in workload.pool_sizes.items():
        entries = {}
        for index in range(size):
            seed = wl.entry_seed(pool, index)
            t0 = time.perf_counter()
            code = wl.run_command(cli, workload.argv(seed), out_dir)
            seconds[seed] = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
            rows = wl.read_csv(os.path.join(out_dir, workload.csv), workload.header)
            entries[str(seed)] = workload.record(rows)
        pools[str(pool)] = entries
    return {
        "workload": workload.name,
        "command": workload.argv("<seed>"),
        "pools": pools,
        "seconds": {str(k): round(v, 4) for k, v in seconds.items()},
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    cli = wl.import_cli()
    for name, workload in sorted(wl.WORKLOADS.items()):
        doc = build(workload, cli)
        with open(workload.reference_path(), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {sum(len(p) for p in doc['pools'].values())} entries", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
