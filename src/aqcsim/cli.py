"""Command-line front end: config handling, experiment orchestration, output.

Commands map one-to-one onto the experiment routines:

  run      one sweep on one instance (optional trajectory dump)
  profile  curvature-versus-lambda table for offline control / plotting
  sweep-t  P(T) curves for both controllers on one instance -> fig2_curve.csv
  scaling  mean time-to-target versus qubit count        -> fig3_scaling.csv
  deltap   mean relative improvement versus gain          -> fig4_deltap.csv

Every value a command uses is resolved as flag > config file > default and
echoed, with its provenance, into <out>/manifest.json next to the tables,
so a run is reproducible from its own output directory.  Output files are
written to a temporary name and renamed into place; floats are serialized
with repr (round-trip exact).  Exit codes: 0 ok, 2 usage (every value is
checked before the command starts, sizes whose arrays cannot fit in memory
included; a malformed --replay file also exits 2), 3 numerical failure
(SimulationError, or any other ValueError raised inside a command), 4 I/O
failure (an unreadable --config or --replay file, an unwritable output).

Sizes are checked against one memory model, _footprint: the command's peak
bytes as terms named by the flag that sizes them, counted from the constants
the allocating code uses; the first term that takes their running sum past
physical memory is refused.  What is alive together is summed: the plan's
frame maps and energies (two plans in a serial ensemble of two or more
instances, which builds the next instance while it runs the current one),
one chunk of stacked decompositions (hamiltonians.chunk_size) on the
caller and, except in a process pool's tasks, one on the plan's worker
thread, then per propagated column its cell times and its share of
propagate's one reused chunk, whose cells evolution._phase_cells bounds
by bytes.  Not counted:
cells the bisection adds beyond steps (up to 80 in all on seeds 1-29 at
n = 2..5), and the level solve's dense output (about 2 MiB at n = 5).

A command imports only the layers it runs, when it runs: profile needs
the spectral layer alone, which `import aqcsim` loads; run imports
evolution, and sweep-t, scaling and deltap experiments too.  The thread
pool (concurrent.futures) is imported by the first job queued on an eigen
worker: an n = 2 run, sweep-t or deltap queues none.  Every call
into the library goes through a module attribute (xp.sweep_T, never a
name imported from it), so a wrapped or patched attribute sees it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import hamiltonians as ham
from . import spectral
from .errors import ProfileFormatError, SimulationError

OUTDIR_ENV = "AQCSIM_OUTDIR"

__all__ = ["RunConfig", "parse_config", "emit_tables", "replay_profile", "main"]


def _int_list(text: str):
    return tuple(int(tok) for tok in text.split(","))


def _check_fits(what: str, need: int, holds: str) -> None:
    """Refuse, before they are allocated, `need` bytes that physical memory cannot hold."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{what} needs at least {need:.3g} bytes ({holds}), "
            f"more than the {have:.3g} bytes of memory"
        )


def _float_list(text: str):
    """Comma-separated values, or lo:hi:count for a geometric grid."""
    if ":" in text:
        lo, hi, count = text.split(":")
        count = int(count)
        _check_fits(f"a grid of {count} values", 48 * count,
                    "geomspace's array, then a tuple slot and a float per value")
        return tuple(np.geomspace(float(lo), float(hi), count))
    return tuple(float(tok) for tok in text.split(","))


def _bool(text: str):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Option registry: key -> (converter, default, help).  Keys double as
# config-file keys and as --flags with dashes.  A key is available to the
# commands listed in _COMMAND_OPTIONS below.
_OPTIONS = {
    "n": (int, 2, "qubit count"),
    "seed": (int, 7, "instance seed"),
    "epsilon": (_float_list, None, "explicit coupling list c1,c2,... (overrides sampling)"),
    "controller": (str, "linear", "linear or feedback"),
    "t_total": (float, None, "total sweep time (linear controller)"),
    "k": (float, None, "controller gain (feedback controller)"),
    "curvature_floor": (float, None, "pace floor on |c2| (default: 1e-6 of the profile max)"),
    "replay": (str, None, "(lambda, c2) profile CSV that feedback replays instead of "
                          "the live level dynamics"),
    "steps": (int, ham.DEFAULT_STEPS, "number of schedule cells"),
    "sample_stride": (int, 0, "trajectory rows every N nodes (0 = no dump)"),
    "resolution": (int, 1024, "number of lambda samples"),
    "t_min": (float, 0.5, "smallest sweep time in the grid"),
    "t_max": (float, 2.0, "largest sweep time in the grid"),
    "t_points": (int, 16, "number of grid points"),
    "t_units": (str, "tad", "'tad' (multiples of the adiabatic time) or 'abs'"),
    "n_values": (_int_list, (2, 3, 4, 5), "comma-separated qubit counts, e.g. 2,3,4,5"),
    "samples": (int, 100, "instances per ensemble cell"),
    "master_seed": (int, 7, "seed from which all instance seeds derive"),
    "target_p": (float, 0.9, "success probability to reach"),
    "k_grid": (_float_list, tuple(np.geomspace(3e-3, 3.0, 13)),
               "gain values: comma list or lo:hi:count (geometric)"),
    # None: resolved against the environment in parse_config
    "out": (str, None, f"output directory (default ${OUTDIR_ENV} or ./aqcsim_out)"),
    "plots": (_bool, False, "also write simple SVG line plots"),
    "workers": (int, 0, "process-pool size (0 = in-process; at most the CPU count)"),
}

_COMMAND_OPTIONS = {
    "run": ("out", "n", "seed", "epsilon", "controller", "t_total", "k",
            "curvature_floor", "replay", "steps", "sample_stride"),
    "profile": ("out", "plots", "n", "seed", "epsilon", "resolution"),
    "sweep-t": ("out", "plots", "n", "seed", "epsilon", "steps", "curvature_floor",
                "t_min", "t_max", "t_points", "t_units"),
    "scaling": ("out", "plots", "workers",
                "n_values", "samples", "master_seed", "target_p", "steps"),
    "deltap": ("out", "plots", "workers",
               "n", "samples", "master_seed", "k_grid", "steps"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    values: dict
    provenance: dict  # key -> "flag" | "config" | "default"

    def __getitem__(self, key):
        return self.values[key]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqcsim",
        description="Annealing-schedule simulator with curvature feedback",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="key = value file; flags take precedence")
        for key in keys:
            # every value, flag or config text, is converted in parse_config
            if key == "plots":
                p.add_argument(_flag(key), action="store_const", const="true",
                               default=None, help=_OPTIONS[key][2])
            else:
                p.add_argument(_flag(key), default=None, help=_OPTIONS[key][2])
    return parser


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            values[key.strip().replace("-", "_")] = text.strip()
    return values


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _rule(accepts, requirement):
    """A check(flag, value) that raises ValueError(f"{flag} {requirement}, got {value}")."""

    def check(flag: str, value) -> None:
        if not accepts(value):
            raise ValueError(f"{flag} {requirement}, got {value}")

    return check


def _known_controller(flag: str, value) -> None:
    """The --controller rule: a family evolution knows (imported here: only run takes it)."""
    from . import evolution as evo

    _rule(lambda c: c in evo.CONTROLLER_FAMILIES, "must be 'linear' or 'feedback'")(flag, value)


# (key, check(flag, value)) for every value a command's library call would refuse, checked
# in order; a key the command does not take, or leaves unset (None), is skipped.  A scale,
# a gain grid or the target P is checked by the library's own rule, ham.checked_positive,
# ham.checked_ascending or ham.checked_fraction.  Rules that tie two options together are
# in _validate.
_RULES = (
    ("epsilon", _rule(lambda x: all(map(math.isfinite, x)), "must be finite")),
    ("n", _rule(lambda x: x >= 1, "must be >= 1")),
    ("seed", _rule(lambda x: x >= 0, "must be >= 0")),
    ("master_seed", _rule(lambda x: x >= 0, "must be >= 0")),
    ("steps", _rule(lambda x: x >= 1, "must be >= 1")),
    ("samples", _rule(lambda x: x >= 1, "must be >= 1")),
    ("sample_stride", _rule(lambda x: x >= 0, "must be >= 0")),
    ("resolution", _rule(lambda x: x >= 2, "must be >= 2")),
    ("t_points", _rule(lambda x: x >= 1, "must be >= 1")),
    *((key, ham.checked_positive)
      for key in ("t_min", "t_max", "t_total", "k", "curvature_floor")),
    ("target_p", ham.checked_fraction),
    ("workers", _rule(lambda x: 0 <= x <= (os.cpu_count() or 1),
                      f"must lie in [0, {os.cpu_count() or 1}] (the CPU count)")),
    ("k_grid", ham.checked_ascending),
    ("n_values", _rule(lambda ns: ns[0] >= 2 and all(a < b for a, b in zip(ns, ns[1:])),
                       "must be ascending and each >= 2")),
    ("n_values", _rule(lambda ns: len(ns) >= 3, "needs >= 3 distinct sizes for the fit")),
    ("t_units", _rule(lambda u: u in ("tad", "abs"), "must be 'tad' or 'abs'")),
    ("controller", _known_controller),
)

# run's parameters per controller: the first is required, the other's are refused
_CONTROLLER_OPTIONS = {"linear": ("t_total",), "feedback": ("k", "curvature_floor", "replay")}


def _footprint(command: str, v: dict) -> list:
    """The command's peak bytes as [(flag, bytes, what)] terms, in the order they are summed."""
    n_values = v["n_values"] if "n_values" in v else (v["n"],)
    n = max(n_values)
    dim = 2 ** min(n, 64)  # 8 * 4**64 B exceeds any memory
    fixed, csv = 256 << 10, 96  # parser, pair and manifest; a CSV cell: repr, line, text, copy
    point = 16 * dim * dim + 8 * dim  # a stacked point: H(lam), its eigenvectors and energies

    def stack(points: int) -> int:
        """One chunk of `points` decomposed and the last one's V; a chunk of level rows is less."""
        return min(points, ham.chunk_size(dim)) * (point + 8 * dim * dim)

    if command == "profile":
        res = v["resolution"]
        # a grid point: 24 B for lam, c2_full and c2_pair, and its table row
        return [(f"n = {n}", fixed + point, "the parser, the pair and the manifest"),
                ("--resolution", stack(res) + res * (24 + 3 * csv),
                 "the curvature and the table on the grid, and a chunk of either route")]
    from . import evolution as evo  # every other command runs it

    cells = max(v["steps"], evo._BASE_CELLS)
    live = command != "run" or (v["controller"] == "feedback" and v["replay"] is None)
    scan = command == "scaling" or v.get("t_units") == "tad"
    curve = 2 * cells + 1 if live else 0  # |c2| at the plan's nodes and midpoints
    beside = max(curve, evo._SCAN_POINTS * scan)
    # a serial ensemble (workers 0 or 1) builds the next instance's plan while it runs the
    # current one; a pool's tasks have no eigen worker
    serial = command in ("scaling", "deltap") and v["workers"] <= 1
    plans = 2 if serial and v["samples"] * len(n_values) > 1 else 1
    # each plan keeps frame maps, energies and lam vectors per cell, and until its first read
    # a copy of each midpoint chunk's first and last eigenvectors; the eigen worker (the T_ad
    # scan too, for serial scaling) holds a whole chunk, while the caller holds a chunk of the
    # T_ad scan or of a live feedback curvature (48 B a point), or a quarter chunk of
    # midpoints at the first read; before, the bisection's 65 nodes.  An n = 2 plan queues
    # nothing and its reader takes quarter chunks, but a whole chunk is still counted for
    # it: an upper bound
    whole = v.get("workers", 0) <= 1 or dim < evo._THREAD_MIN_DIM
    worker = whole * stack(max(cells, evo._SCAN_POINTS * (serial and scan)))
    chunks = -(-cells // ham.chunk_size(dim))
    edges = 2 * chunks * 8 * dim * dim
    reader = (chunks > 1 or not whole) * max(3, ham.chunk_size(dim) // evo._READER_SHARE)
    plan = max((evo._BASE_CELLS + 1) * point,
               plans * (cells * (8 * dim * (dim + 1) + 40) + edges) + worker
               + stack(max(beside, reader)) + curve * 48)

    def propagated(columns: int) -> int:
        """A pass of `columns` sweeps: per column 9 B a cell and 48 B a level, and per chunk
        cell (evo._phase_cells) 40 B a level and 24 B for the norms."""
        chunk = min(cells, evo._phase_cells(dim, columns))
        return columns * (9 * cells + chunk * (40 * dim + 24) + 48 * dim)

    # run's one sweep, or scaling's widest lockstep pass
    columns = 1 if command == "run" else 0
    if command == "scaling":
        from . import experiments as xp

        columns = xp._WIDEST_PASS
    terms = [(f"n = {n}", fixed + plan + propagated(columns),
              "the pair, the plan(s), a chunk of decompositions a thread, and the fixed columns")]
    if command == "run" and v["sample_stride"] > 0:
        rows = -(-cells // v["sample_stride"]) + 1
        # a row: its state (16 B a level and the array's header), the table row and its text
        terms.append(("--sample-stride", stack(rows) + rows * (16 * dim + 152 + 5 * csv),
                      "a chunk of the trajectory's decompositions, its states and the table"))
    if command in ("sweep-t", "deltap"):
        # 2 propagated columns per value, and its table cells: 2 rows of 3, or a row of 4
        flag, count, table = (("--t-points", v["t_points"], 6) if command == "sweep-t"
                              else ("--k-grid", len(v["k_grid"]), 4))
        terms.append((flag, propagated(2 * count) + count * table * csv,
                      f"2 propagated columns and the table row(s) per {flag} value"))
    if "samples" in v:
        # an instance's key (140 B), record (80 B), family -> T dict or dP tuple (32 B a gain)
        value = 40 + 32 * len(v["k_grid"]) if "k_grid" in v else 232
        terms.append(("--samples", (220 + value) * v["samples"] * len(n_values),
                      "an (n, index, seed) key and a kept record with its value per instance"))
    return terms


def _validate(command: str, v: dict) -> None:
    """Reject the values and combinations the commands cannot honor.

    Every value a command's library call would refuse is refused here,
    before any work, so that a ValueError raised inside a command is a
    failure of the run (exit 3), not of its arguments.
    """
    for key, check in _RULES:
        if v.get(key) is not None:
            check(_flag(key), v[key])
    if command == "sweep-t" and v["t_max"] <= v["t_min"]:
        raise ValueError(f"--t-max must exceed --t-min, got {v['t_max']} <= {v['t_min']}")
    if command == "run":
        mode = v["controller"]
        other = "feedback" if mode == "linear" else "linear"
        required = _CONTROLLER_OPTIONS[mode][0]
        if v[required] is None:
            raise ValueError(f"{_flag(required)} is required for --controller {mode}")
        for bad in _CONTROLLER_OPTIONS[other]:
            if v[bad] is not None:
                raise ValueError(f"{_flag(bad)} is not valid for --controller {mode}")
    total = 0  # named: the first term that takes the running total past memory
    for flag, need, what in _footprint(command, v):
        total += need
        _check_fits(flag, total, what)
    # after the size checks: 2**n of a huge n would not finish
    if v.get("epsilon") is not None:
        want = 2 ** v["n"] - 1
        if len(v["epsilon"]) != want:
            raise ValueError(f"--epsilon needs {want} values for n={v['n']}")


def parse_config(argv=None) -> RunConfig:
    """Resolve flags over config-file values over defaults, then validate."""
    ns = _build_parser().parse_args(argv)
    command = ns.command
    keys = _COMMAND_OPTIONS[command]
    file_values = _read_config_file(ns.config) if ns.config else {}
    unknown = set(file_values) - set(keys)
    if unknown:
        raise ValueError(
            f"config keys not accepted by '{command}': {', '.join(sorted(unknown))}"
        )
    values, provenance = {}, {}
    for key in keys:
        text, source = getattr(ns, key), "flag"
        if text is None and key in file_values:
            text, source = file_values[key], "config"
        if text is None:
            values[key], provenance[key] = _OPTIONS[key][1], "default"
            continue
        try:
            values[key] = _OPTIONS[key][0](text)
        except ValueError as err:
            raise ValueError(f"{_flag(key)}: {err}") from None
        provenance[key] = source
    if values["out"] is None:
        values["out"] = os.environ.get(OUTDIR_ENV, "aqcsim_out")
        if provenance["out"] == "default" and OUTDIR_ENV in os.environ:
            provenance["out"] = f"env:{OUTDIR_ENV}"
    _validate(command, values)
    return RunConfig(command=command, values=values, provenance=provenance)


def _format_cell(name: str, column: str, value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: column {column} holds the non-finite {float(value)!r}")
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _non_finite_key(doc, key: str = ""):
    """The key path of the first non-finite float in a JSON-like document, or None."""
    if isinstance(doc, (dict, list, tuple)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        found = (_non_finite_key(value, f"{key}.{k}" if key else str(k)) for k, value in items)
        return next((path for path in found if path is not None), None)
    return key if isinstance(doc, float) and not math.isfinite(doc) else None


def emit_tables(results: dict, out_dir: str, manifest: dict | None = None):
    """Write CSV tables (and the manifest) atomically into out_dir.

    results maps file name -> (column names, row iterable), or -> text that
    is written as it is (a plot).  Rows may be empty; the header is still
    written so downstream tooling sees the schema.  Every file is
    serialized before the first is written, so a refused file leaves
    nothing behind: a non-finite float in a CSV cell (named by file and
    column) or anywhere in the manifest (named by its key) raises
    ValueError.  Returns the written paths.
    """
    files = {}
    for name, table in results.items():
        if isinstance(table, str):
            files[name] = table
            continue
        columns, rows = table
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(name, col, cell) for col, cell in zip(columns, row))
                     for row in rows)
        files[name] = "\n".join(lines) + "\n"
    if manifest is not None:
        key = _non_finite_key(manifest)
        if key is not None:
            raise ValueError(f"manifest.json: {key} is not a finite number")
        files["manifest.json"] = json.dumps(manifest, indent=2, default=str) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        _atomic_write(path, text)
        written.append(path)
    return written


def _manifest(cfg: RunConfig, results: dict) -> dict:
    doc = {
        "tool": "aqcsim",
        "version": __version__,
        "command": cfg.command,
        "config": {
            key: {"value": cfg.values[key], "source": cfg.provenance[key]}
            for key in sorted(cfg.values)
        },
    }
    if results:
        doc["results"] = results
    return doc


def replay_profile(path: str):
    """Load a (lambda, c2) CSV for offline-control feedback runs.

    The lambda column must descend strictly from 1 to 0.  Extra columns
    beyond the second are ignored (the profile command writes c2_pair
    there).  Returns (lams, c2) arrays; interpolation between rows is the
    evolution module's job.
    """
    lams, c2s = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                lam, c2 = float(tokens[0]), float(tokens[1])
            except IndexError:
                raise ProfileFormatError("expected at least two columns", line=lineno) from None
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ProfileFormatError(f"non-numeric row: {line!r}", line=lineno) from None
            if not (math.isfinite(lam) and math.isfinite(c2)):
                raise ProfileFormatError(f"non-finite value: {line!r}", line=lineno)
            if lams and lam >= lams[-1]:
                raise ProfileFormatError(
                    f"lambda must descend strictly (got {lam} after {lams[-1]})",
                    line=lineno,
                )
            lams.append(lam)
            c2s.append(c2)
    if len(lams) < 2:
        raise ProfileFormatError(f"{path}: profile needs at least two rows")
    if lams[0] != 1.0 or lams[-1] != 0.0:
        raise ProfileFormatError(
            f"{path}: profile must span lambda = 1 down to 0, "
            f"got [{lams[0]}, {lams[-1]}]"
        )
    return np.asarray(lams), np.asarray(c2s)


def _instance(cfg: RunConfig) -> ham.HamiltonianPair:
    """The command's pair; one whose problem ties its ground states is refused before any work."""
    if cfg["epsilon"] is not None:
        pair = ham.make_pair(cfg["n"], cfg["epsilon"], cfg["seed"])
    else:
        pair = ham.pair_from_seed(cfg["n"], cfg["seed"])
    ham.problem_ground_index(pair)
    return pair


def _cmd_run(cfg: RunConfig):
    from . import evolution as evo

    pair = _instance(cfg)
    family = cfg["controller"]
    replay = replay_profile(cfg["replay"]) if cfg["replay"] is not None else None
    with evo.eigen_worker() as eigen:  # the plan's frames, beside the level ODE
        inst = evo.Instance(pair, cfg["steps"], cfg["curvature_floor"], profile=replay,
                            executor=eigen)
        record = inst.evolve(family, cfg[_CONTROLLER_OPTIONS[family][0]],
                             sample_stride=cfg["sample_stride"])
    tables = {}
    if record.samples is not None:
        tables["trajectory.csv"] = (evo.SAMPLE_COLUMNS, record.samples)
    results = {"P": record.P, "T": record.T, "norm_drift": record.norm_drift,
               "problem_seed": pair.seed}
    if record.curvature_route is not None:
        results["curvature_route"] = record.curvature_route
    summary = f"P = {record.P!r}  T = {record.T!r}  norm_drift = {record.norm_drift:.3e}"
    return tables, results, summary


def _cmd_profile(cfg: RunConfig):
    pair = _instance(cfg)
    lams = np.linspace(1.0, 0.0, cfg["resolution"])
    c2_full, c2_pair, route = spectral.curvature_profile(pair, lams)
    rows = zip(lams, c2_full, c2_pair)
    tables = {"profile.csv": (("lambda", "c2_full", "c2_pair"), rows)}
    if cfg["plots"]:
        tables["profile.svg"] = _plot_lines(
            [("|c2|", list(zip(lams, np.abs(c2_full))))],
            xlabel="lambda", ylabel="|c2|", logy=True,
        )
    peak = float(lams[np.argmax(np.abs(c2_full))])
    return tables, {"curvature_route": route}, f"profile written; |c2| peaks at lambda = {peak!r}"


def _cmd_sweep_t(cfg: RunConfig):
    from . import evolution as evo
    from . import experiments as xp

    pair = _instance(cfg)
    grid = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    results: dict = {}
    if cfg["t_units"] == "tad":
        t_ad = evo.adiabatic_time(pair)
        results["T_ad"] = t_ad
        grid = grid * t_ad
    curves = xp.sweep_T(
        pair, grid, steps=cfg["steps"], curvature_floor=cfg["curvature_floor"]
    )
    rows = [(fam, T, P) for fam in xp.CONTROLLER_FAMILIES for T, P in curves[fam]]
    tables = {"fig2_curve.csv": (("controller", "T", "P"), rows)}
    if cfg["plots"]:
        tables["fig2_curve.svg"] = _plot_lines(
            [(fam, [tuple(row) for row in curves[fam]]) for fam in curves],
            xlabel="T", ylabel="P",
        )
    return tables, results, f"sweep-t: {len(rows)} rows -> fig2_curve.csv"


def _cmd_scaling(cfg: RunConfig):
    from . import experiments as xp

    summary = xp.scaling_study(cfg["n_values"], cfg["samples"], cfg["master_seed"],
                               cfg["target_p"], steps=cfg["steps"], workers=cfg["workers"])
    for c in summary.cells:
        if c.count == 0:
            raise SimulationError(
                f"no instance left for n={c.n}, {c.controller}: all {c.excluded} "
                f"excluded (ensemble exclusions {summary.exclusions})"
            )
    rows = [
        (c.n, c.controller, c.mean_T, c.std_T, c.count) for c in summary.cells
    ]
    results = {
        fam: {
            "exponent": fit.exponent,
            "intercept": fit.intercept,
            "residual_rms": fit.residual_rms,
        }
        for fam, fit in summary.fits.items()
    }
    results["excluded"] = {
        f"n={c.n},{c.controller}": c.excluded for c in summary.cells if c.excluded
    }
    results["exclusions"] = summary.exclusions
    tables = {"fig3_scaling.csv": (("n", "controller", "meanT", "stdT", "count"), rows)}
    if cfg["plots"]:
        series = [
            (fam, [(c.n, c.mean_T) for c in summary.cells if c.controller == fam])
            for fam in xp.CONTROLLER_FAMILIES
        ]
        tables["fig3_scaling.svg"] = _plot_lines(
            series, xlabel="n", ylabel="mean T", logx=True, logy=True
        )
    lines = (f"{fam}: T ~ n^{fit.exponent:.2f} (residual {fit.residual_rms:.3f})"
             for fam, fit in summary.fits.items())
    return tables, results, "\n".join(lines)


def _cmd_deltap(cfg: RunConfig):
    from . import experiments as xp

    res = xp.delta_p_sweep(
        cfg["k_grid"],
        n=cfg["n"],
        samples=cfg["samples"],
        master_seed=cfg["master_seed"],
        steps=cfg["steps"],
        workers=cfg["workers"],
    )
    if res.count == 0:
        raise SimulationError(
            f"no instance left for n={cfg['n']}: all {res.excluded} excluded "
            f"({res.exclusions})"
        )
    rows = [
        (k, m, s, res.count)
        for k, m, s in zip(res.k_values, res.mean_dP, res.std_dP)
    ]
    best = int(np.argmax(res.mean_dP))
    results = {
        "best_k": float(res.k_values[best]),
        "best_mean_dP": float(res.mean_dP[best]),
        "excluded": res.excluded,
        "exclusions": res.exclusions,
    }
    tables = {"fig4_deltap.csv": (("k", "mean_dP", "std_dP", "count"), rows)}
    if cfg["plots"]:
        tables["fig4_deltap.svg"] = _plot_lines(
            [("mean dP", list(zip(res.k_values, res.mean_dP)))],
            xlabel="k", ylabel="mean dP", logx=True,
        )
    return tables, results, (f"deltap: peak mean dP = {results['best_mean_dP']:.4f} "
                             f"at k = {results['best_k']:.4g}")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _plot_lines(series, xlabel="", ylabel="", logx=False, logy=False) -> str:
    """Tiny dependency-free SVG line plot; enough to eyeball the tables."""
    W, H, M = 640, 440, 60

    def tx(values, log):
        v = np.asarray(values, dtype=float)
        return np.log10(v) if log else v

    all_x = np.concatenate([tx([p[0] for p in pts], logx) for _, pts in series])
    all_y = np.concatenate([tx([p[1] for p in pts], logy) for _, pts in series])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return M + (x - x0) / xspan * (W - 2 * M)

    def sy(y):
        return H - M - (y - y0) / yspan * (H - 2 * M)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 15}" font-size="13">'
        f"{xlabel}{' (log)' if logx else ''}</text>",
        f'<text x="15" y="{H // 2}" font-size="13" '
        f'transform="rotate(-90 15 {H // 2})">'
        f"{ylabel}{' (log)' if logy else ''}</text>",
    ]
    for i, (label, pts) in enumerate(series):
        xs = tx([p[0] for p in pts], logx)
        ys = tx([p[1] for p in pts], logy)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{W - M + 5}" y="{M + 18 * i}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# command -> function returning (tables, manifest results, summary); main writes and prints them
_COMMANDS = {
    "run": _cmd_run,
    "profile": _cmd_profile,
    "sweep-t": _cmd_sweep_t,
    "scaling": _cmd_scaling,
    "deltap": _cmd_deltap,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ValueError as err:
        print(f"aqcsim: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an unreadable --config
        print(f"aqcsim: I/O failure: {err}", file=sys.stderr)
        return 4
    try:
        tables, results, summary = _COMMANDS[cfg.command](cfg)
        emit_tables(tables, cfg["out"], _manifest(cfg, results))
    except ProfileFormatError as err:  # a malformed --replay file is a usage error
        print(f"aqcsim: {err}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError) as err:
        print(f"aqcsim: numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"aqcsim: I/O failure: {err}", file=sys.stderr)
        return 4
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
