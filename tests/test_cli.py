"""Config resolution, table emission, replay parsing, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqcsim import cli
from aqcsim import experiments as xp
from aqcsim import hamiltonians as ham
from aqcsim import spectral
from aqcsim.errors import ProfileFormatError


def test_flags_beat_config_beats_default(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("samples = 37\nmaster_seed = 99\n# comment line\n\nn = 3\n")
    rc = cli.parse_config(
        ["deltap", "--config", str(cfg), "--samples", "10", "--out", "o"]
    )
    assert rc["samples"] == 10 and rc.provenance["samples"] == "flag"
    assert rc["master_seed"] == 99 and rc.provenance["master_seed"] == "config"
    assert rc["n"] == 3 and rc.provenance["n"] == "config"
    assert rc["steps"] == 2048 and rc.provenance["steps"] == "default"


def test_config_file_types_match_flag_types(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_values = 2,3,4\ntarget_p = 0.8\n")
    rc = cli.parse_config(["scaling", "--config", str(cfg)])
    assert rc["n_values"] == (2, 3, 4)
    assert rc["target_p"] == 0.8


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("samples = 5\n")  # not a sweep-t key
    assert cli.main(["sweep-t", "--config", str(cfg)]) == 2


def test_geometric_gain_grid_shorthand():
    rc = cli.parse_config(["deltap", "--k-grid", "0.01:1:5"])
    np.testing.assert_allclose(rc["k_grid"], np.geomspace(0.01, 1.0, 5))


def test_outdir_comes_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envout"))
    rc = cli.parse_config(["profile", "--n", "2"])
    assert rc["out"] == str(tmp_path / "envout")
    assert rc.provenance["out"] == f"env:{cli.OUTDIR_ENV}"


def test_invalid_flag_combinations_exit_2(capsys):
    assert cli.main(["run", "--controller", "linear"]) == 2  # no --t-total
    assert cli.main(["run", "--controller", "feedback"]) == 2  # no --k
    assert (
        cli.main(["run", "--controller", "feedback", "--k", "1", "--t-total", "2"])
        == 2
    )
    assert "aqcsim:" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--warp-speed", "9"])
    assert err.value.code == 2


def test_size_and_worker_limits_exit_2(tmp_path, capsys, monkeypatch):
    # refused before any instance is built or any worker process started
    out = ["--out", str(tmp_path / "o")]
    assert cli.main(["run", "--n", "40", "--t-total", "1", *out]) == 2
    assert cli.main(["profile", "--n", "40", *out]) == 2
    assert cli.main(["scaling", "--n-values", "2,3,40", *out]) == 2
    assert cli.main(["deltap", "--workers", "-1", *out]) == 2
    assert cli.main(["scaling", "--workers", str((os.cpu_count() or 1) + 1), *out]) == 2
    err = capsys.readouterr().err
    assert err.count("bytes of memory") == 3 and err.count("CPU count") == 2
    assert not (tmp_path / "o").exists()
    # the steps count: in 1 MiB of memory, n = 4 fits with one step, not with 2048
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cli.parse_config(["run", "--n", "4", "--t-total", "1", "--steps", "1"])
    with pytest.raises(ValueError, match="bytes of memory"):
        cli.parse_config(["run", "--n", "4", "--t-total", "1"])


_HUGE = "1000000000000"


@pytest.fixture
def nothing_is_sized_by_the_count(monkeypatch):
    """Fail fast, instead of filling memory, if a grid or an ensemble is started."""

    def allocates(*args, **kwargs):
        raise AssertionError("an array or list sized by the count was started")

    monkeypatch.setattr(np, "linspace", allocates)
    monkeypatch.setattr(np, "geomspace", allocates)
    monkeypatch.setattr(xp, "map_instances", allocates)


@pytest.mark.parametrize(
    "argv, flag",
    [(["sweep-t", "--n", "2", "--t-points", _HUGE, "--steps", "64"], "--t-points"),
     (["profile", "--n", "2", "--resolution", _HUGE], "--resolution"),
     (["deltap", "--k-grid", f"0.1:1:{_HUGE}", "--steps", "64", "--samples", "1"], "--k-grid"),
     (["deltap", "--samples", _HUGE, "--steps", "64"], "--samples"),
     (["scaling", "--samples", _HUGE, "--steps", "64"], "--samples"),
     (["run", "--n", "100000", "--epsilon", "1", "--t-total", "1"], "n = 100000")],
)
def test_sizes_that_cannot_fit_in_memory_exit_2_naming_the_flag(
    tmp_path, capsys, nothing_is_sized_by_the_count, argv, flag
):
    # refused by arithmetic on the count, before any array it sizes exists
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aqcsim: {flag}") and "bytes of memory" in err
    assert not out.exists()
    with pytest.raises(ValueError, match=flag):
        cli.parse_config(argv)


_K_GRID_1000 = ",".join(repr(0.001 * (i + 1)) for i in range(1000))


@pytest.mark.parametrize(
    "memory, argv, flag",
    [(2 << 30, ["sweep-t", "--n", "2", "--t-points", "200000", "--steps", "64"], "--t-points"),
     (8 << 20, ["deltap", "--n", "2", "--samples", "1", "--steps", "64",
                "--k-grid", _K_GRID_1000], "--k-grid")],
    ids=["sweep-t", "deltap"],
)
def test_the_propagation_phase_chunk_counts_against_memory(
    tmp_path, capsys, monkeypatch, nothing_is_sized_by_the_count, memory, argv, flag
):
    # the cell times alone (16 * steps bytes per T or k) fit in `memory`;
    # propagate's phase-chunk block, 40 * 64 * dim bytes per column, does not
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aqcsim: {flag}") and "bytes of memory" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "memory, argv, flag",
    [(128 << 10, ["run", "--n", "4", "--controller", "linear", "--t-total", "1",
                  "--steps", "1"], "n = 4"),
     (512 << 10, ["profile", "--n", "2", "--epsilon", "1,1,0", "--resolution", "4096"],
      "--resolution")],
    ids=["plan-bisection", "profile-fallback"],
)
def test_the_largest_eigendecomposition_stack_counts_against_memory(
    tmp_path, capsys, monkeypatch, nothing_is_sized_by_the_count, memory, argv, flag
):
    # run: the bias and one cell's frame map (4 KiB) fit, the 65-node bisection
    # stack of H and its eigenvectors (260 KiB) does not; profile: the level
    # rows (256 KiB) fit, the diagonalization fallback's stacks for an
    # instance the level equations refuse (1 MiB) do not
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aqcsim: {flag}") and "bytes of memory" in err
    assert not out.exists()


def test_a_grid_count_in_the_config_file_is_refused_before_the_grid_is_built(
    tmp_path, capsys, nothing_is_sized_by_the_count
):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"k_grid = 0.1:1:{_HUGE}\n")
    out = tmp_path / "o"
    assert cli.main(["deltap", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("aqcsim: --k-grid: a grid of")
    assert not out.exists()


# every one-qubit sigma_z at weight 1: a unique ground state, and excited levels tied by the
# exchange of qubits, which the level equations refuse
_SYMMETRIC = {n: ",".join("1" if j & (j - 1) == 0 else "0" for j in range(1, 2**n))
              for n in (3, 4)}


@pytest.mark.parametrize(
    "argv",
    [["run", "--n", "4", "--epsilon", _SYMMETRIC[4], "--controller", "feedback", "--k", "0.1",
      "--steps", "1024"],
     ["run", "--n", "2", "--controller", "linear", "--t-total", "1", "--steps", "4000",
      "--sample-stride", "1"],
     ["profile", "--n", "3", "--epsilon", _SYMMETRIC[3], "--resolution", "20000"],
     ["sweep-t", "--n", "2", "--t-points", "400", "--steps", "256"],
     ["deltap", "--n", "3", "--samples", "1", "--k-grid", "0.01:1:400", "--steps", "256"],
     ["scaling", "--n-values", "2,3,4", "--samples", "1", "--steps", "2048"]],
    ids=["run-fallback", "run-trajectory", "profile-fallback", "sweep-t", "deltap",
         "scaling-fallback"],
)
def test_the_traced_peak_of_each_command_meets_its_footprint(
    tmp_path, monkeypatch, join_plan_threads, argv
):
    # sizes at which the counted terms outweigh the fixed cost, on the route the model
    # counts: a symmetric problem takes the diagonalization fallback, here and in scaling
    real = xp.make_instance
    symmetric = ham.make_pair(4, np.array(_SYMMETRIC[4].split(","), float))
    monkeypatch.setattr(xp, "make_instance",
                        lambda n, seed: symmetric if n == 4 else real(n, seed))
    cfg = cli.parse_config(argv)
    footprint = sum(need for _, need, _ in cli._footprint(cfg.command, cfg.values))
    # a first run, so that one-off imports and caches are not traced
    warm = ["run", "--controller", "linear", "--t-total", "1", "--steps", "1"]
    assert cli.main([*warm, "--out", str(tmp_path / "warm")]) == 0
    join_plan_threads()  # an earlier plan's thread would be traced too
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    route = json.loads((out / "manifest.json").read_text())["results"].get("curvature_route")
    assert route in (None, "diagonalization" if "--epsilon" in argv else "level_dynamics")
    assert peak <= footprint <= 3 * peak


def test_a_profile_whose_levels_would_overflow_takes_the_diagonalization_route(tmp_path):
    out = tmp_path / "o"
    argv = ["profile", "--n", "2", "--epsilon", "1e150,1e140,1", "--resolution", "16"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["results"] == {
        "curvature_route": "diagonalization"}
    c2 = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)[:, 1:]
    np.testing.assert_allclose(c2, -1e-138, rtol=1e-5)


@pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing-file", "directory"])
def test_an_unreadable_config_exits_4_and_writes_nothing(tmp_path, capsys, name):
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(tmp_path / name), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("aqcsim: I/O failure:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--plots"], ["run", "--workers", "2"], ["profile", "--workers", "2"],
     ["sweep-t", "--workers", "2"]],
)
def test_options_a_command_never_reads_are_refused(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2


def test_manifest_counts_exclusions_by_reason(tmp_path, degenerate_seed):
    degenerate_seed(xp.instance_seed(9, 2, 0))
    out = tmp_path / "o"
    assert cli.main(["deltap", "--samples", "2", "--master-seed", "9", "--steps",
                     "128", "--k-grid", "0.1,0.3", "--out", str(out)]) == 0
    results = json.loads((out / "manifest.json").read_text())["results"]
    assert results["excluded"] == 1
    assert results["exclusions"] == {"degenerate": 1}


@pytest.mark.parametrize("command", ["scaling", "deltap"])
def test_ensemble_with_an_empty_cell_exits_3_and_writes_nothing(
    tmp_path, capsys, degenerate_seed, command
):
    if command == "scaling":  # every n = 3 instance is degenerate
        degenerate_seed(xp.instance_seed(9, 3, 0))
        argv = ["scaling", "--n-values", "2,3,4", "--samples", "1"]
    else:  # every instance is degenerate
        degenerate_seed(xp.instance_seed(9, 2, 0), xp.instance_seed(9, 2, 1))
        argv = ["deltap", "--n", "2", "--samples", "2", "--k-grid", "0.1,1"]
    out = tmp_path / "o"
    code = cli.main([*argv, "--master-seed", "9", "--steps", "128", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "no instance left" in err and "'degenerate'" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [(["deltap", "--samples", "0", "--steps", "128"], "samples must be >= 1"),
     (["deltap", "--k-grid", "0.1:1:0", "--steps", "128"], "--k-grid must not be empty"),
     (["sweep-t", "--t-points", "0", "--steps", "128"], "--t-points must be >= 1"),
     (["run", "--n", "2", "--controller", "linear", "--t-total", "1",
       "--sample-stride", "-3", "--steps", "128"], "--sample-stride must be >= 0"),
     (["profile", "--resolution", "1"], "--resolution must be >= 2")],
)
def test_empty_ensemble_or_grid_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["run", "--t-total", "1", "--steps", "0"], "--steps must be >= 1"),
     (["deltap", "--samples", "0"], "--samples must be >= 1"),
     (["run", "--n", "0", "--t-total", "1"], "--n must be >= 1"),
     (["profile", "--seed", "-1"], "--seed must be >= 0"),
     (["scaling", "--master-seed", "-1"], "--master-seed must be >= 0"),
     (["scaling", "--target-p", "0"], "--target-p must lie in (0, 1)"),
     (["scaling", "--target-p", "1"], "--target-p must lie in (0, 1)"),
     (["run", "--controller", "feedback", "--k", "0"], "--k must be > 0"),
     (["run", "--t-total", "-1"], "--t-total must be > 0"),
     (["run", "--controller", "feedback", "--k", "1", "--curvature-floor", "0"],
      "--curvature-floor must be > 0"),
     (["sweep-t", "--t-points", "0"], "--t-points must be >= 1"),
     (["sweep-t", "--t-min", "0"], "--t-min must be > 0"),
     (["sweep-t", "--t-min", "2", "--t-max", "2"], "--t-max must exceed --t-min"),
     (["deltap", "--k-grid", "0.3,0.1"], "--k-grid must be positive and strictly ascending"),
     (["deltap", "--k-grid=-0.1,0.2"], "--k-grid must be positive and strictly ascending"),
     (["scaling", "--n-values", "3,2,4"], "--n-values must be ascending and each >= 2"),
     (["scaling", "--n-values", "1,2,3"], "--n-values must be ascending and each >= 2"),
     (["scaling", "--n-values", "2,3"], "--n-values needs >= 3 distinct sizes"),
     (["deltap", "--workers", "-1"], "--workers must lie in [0, "),
     (["run", "--n", "two", "--t-total", "1"], "--n: invalid literal for int()")],
)
def test_values_a_command_would_refuse_exit_2_naming_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"aqcsim: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_value_error_inside_a_command_exits_3(tmp_path, capsys, monkeypatch):
    # valid flags; a ValueError from deep in the numerics is a failed run, not a usage error
    def out_of_range(pair, lam):
        raise ValueError("lambda must lie in [0, 1], got 1.5")

    monkeypatch.setattr(ham, "total_hamiltonian", out_of_range)
    out = tmp_path / "o"
    code = cli.main(["run", "--n", "2", "--t-total", "1", "--steps", "64", "--out", str(out)])
    assert code == 3
    assert "numerical failure: lambda must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "instance, route",
    [(["--seed", "6"], "level_dynamics"), (["--epsilon", "1,1,0"], "diagonalization")],
    ids=["seed-6", "degenerate-excited-pair"],
)
def test_manifest_records_the_curvature_route(tmp_path, instance, route):
    def results(name):
        return json.loads((tmp_path / name / "manifest.json").read_text())["results"]

    feedback = ["run", "--n", "2", *instance, "--controller", "feedback", "--k", "0.08",
                "--steps", "256"]
    assert cli.main([*feedback, "--out", str(tmp_path / "live")]) == 0
    assert cli.main(["profile", "--n", "2", *instance, "--resolution", "64",
                     "--out", str(tmp_path / "prof")]) == 0
    assert cli.main([*feedback, "--replay", str(tmp_path / "prof" / "profile.csv"),
                     "--out", str(tmp_path / "replay")]) == 0
    assert cli.main(["run", "--n", "2", *instance, "--controller", "linear",
                     "--t-total", "1", "--steps", "256", "--out", str(tmp_path / "lin")]) == 0
    assert results("live")["curvature_route"] == route
    assert results("prof") == {"curvature_route": route}
    assert results("replay")["curvature_route"] == "replay"
    assert "curvature_route" not in results("lin")
    # telemetry stays out of the tables
    header = (tmp_path / "prof" / "profile.csv").read_text().splitlines()[0]
    assert header == "lambda,c2_full,c2_pair"


def test_numerical_failure_exits_3(tmp_path, capsys):
    # all-zero couplings leave the problem ground state degenerate
    code = cli.main(
        ["run", "--n", "2", "--epsilon", "0,0,0", "--controller", "linear",
         "--t-total", "1.0", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file\n")
    code = cli.main(
        ["profile", "--n", "2", "--seed", "3", "--resolution", "8",
         "--out", str(blocker / "sub")]
    )
    assert code == 4


# ----------------------------------------------------------------- emit_tables


def test_emit_tables_writes_atomic_lf_repr(tmp_path):
    out = tmp_path / "o"
    rows = [(1, "linear", 0.1 + 0.2), (2, "feedback", 1e-17)]
    paths = cli.emit_tables(
        {"t.csv": (("n", "controller", "x"), rows)}, str(out), {"command": "t"}
    )
    assert sorted(os.path.basename(p) for p in paths) == ["manifest.json", "t.csv"]
    assert not list(out.glob("*.tmp"))
    raw = (out / "t.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "n,controller,x"
    # repr serialization round-trips exactly
    assert float(lines[1].split(",")[2]) == 0.1 + 0.2
    assert float(lines[2].split(",")[2]) == 1e-17


def test_emit_tables_header_only_when_empty(tmp_path):
    cli.emit_tables({"empty.csv": (("a", "b"), [])}, str(tmp_path))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_manifest_records_provenance_for_every_key(tmp_path):
    out = tmp_path / "o"
    code = cli.main(
        ["profile", "--n", "2", "--seed", "4", "--resolution", "8",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "profile"
    assert doc["version"]
    for key, entry in doc["config"].items():
        assert entry["source"] in ("flag", "config", "default", f"env:{cli.OUTDIR_ENV}")
    assert doc["config"]["seed"] == {"value": 4, "source": "flag"}


# -------------------------------------------------------------- replay_profile


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), resolution=st.integers(2, 256))
def test_replay_profile_round_trip(tmp_path, n, seed, resolution):
    # the written profile, read back, is the curvature_profile arrays bit for bit
    out = tmp_path / f"p{n}-{seed}-{resolution}"
    assert cli.main(
        ["profile", "--n", str(n), "--seed", str(seed), "--resolution", str(resolution),
         "--out", str(out)]
    ) == 0
    lams, c2 = cli.replay_profile(str(out / "profile.csv"))
    assert lams[0] == 1.0 and lams[-1] == 0.0 and len(lams) == resolution
    assert np.all(np.diff(lams) < 0)
    assert np.all(c2 <= 0)
    grid = np.linspace(1.0, 0.0, resolution)
    c2_full, _, _ = spectral.curvature_profile(ham.pair_from_seed(n, seed), grid)
    np.testing.assert_array_equal(lams, grid)
    np.testing.assert_array_equal(c2, c2_full)


def test_replay_profile_rejects_bad_files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    with pytest.raises(ProfileFormatError, match="line 3"):
        cli.replay_profile(write("asc.csv", "1.0,-1\n0.5,-2\n0.7,-1\n"))
    with pytest.raises(ProfileFormatError, match="span lambda"):
        cli.replay_profile(write("short.csv", "1.0,-1\n0.5,-2\n"))
    with pytest.raises(ProfileFormatError, match="line 2"):
        cli.replay_profile(write("text.csv", "1.0,-1\nok,-2\n0.0,-3\n"))
    with pytest.raises(ProfileFormatError, match="two columns"):
        cli.replay_profile(write("one.csv", "lambda,c2\n1.0,-1\n0.5\n0.0,-3\n"))
    with pytest.raises(ProfileFormatError):
        cli.replay_profile(write("empty.csv", "lambda,c2_full\n"))


@pytest.mark.parametrize("bad_row", ["0.5,nan", "nan,-0.3", "0.5,-inf"])
def test_non_finite_replay_row_exits_2_without_manifest(tmp_path, capsys, bad_row):
    profile = tmp_path / "p.csv"
    profile.write_text(f"lambda,c2\n1.0,-1.0\n{bad_row}\n0.0,-2.0\n")
    with pytest.raises(ProfileFormatError, match="line 3"):
        cli.replay_profile(str(profile))
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--n", "2", "--seed", "6", "--controller", "feedback", "--k", "0.08",
         "--replay", str(profile), "--out", str(out)]
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilon_exits_2_without_manifest(tmp_path, value):
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--n", "1", "--epsilon", value, "--controller", "linear",
         "--t-total", "1.0", "--out", str(out)]
    )
    assert code == 2
    assert not (out / "manifest.json").exists()


def test_non_finite_sweep_exits_3_without_manifest(tmp_path, capsys):
    # finite inputs whose pace overflows: k * |c2| = 1e10 * 1e308 is inf
    profile = tmp_path / "p.csv"
    profile.write_text("lambda,c2\n1.0,-1e308\n0.0,-1e308\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = cli.main(
            ["run", "--n", "2", "--seed", "6", "--controller", "feedback",
             "--k", "1e10", "--replay", str(profile),
             "--out", str(out)]
        )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("epsilon", ["1e200,1,1", "1e300,1e-300,1"])
def test_profile_of_a_tied_ground_state_exits_3_and_writes_nothing(tmp_path, capsys, epsilon):
    # both problems tie their ground states; their perturbation sum divides by a zero gap
    out = tmp_path / "o"
    code = cli.main(["profile", "--n", "2", "--epsilon", epsilon, "--resolution", "16",
                     "--out", str(out)])
    assert code == 3
    assert "tied ground states" in capsys.readouterr().err
    assert not (out / "profile.csv").exists()
    assert not (out / "manifest.json").exists()


def test_manifest_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_tables({}, str(tmp_path), {"results": {"P": float("nan")}})
    assert not (tmp_path / "manifest.json").exists()
    # the tables of a refused manifest are not written either
    out = tmp_path / "o"
    with pytest.raises(ValueError):
        cli.emit_tables({"t.csv": (("x",), [(1.0,)])}, str(out), {"fit": float("nan")})
    assert not out.exists()


def test_a_non_finite_cell_or_result_writes_nothing_and_is_named(tmp_path):
    out = tmp_path / "o"
    tables = {"a.csv": (("x",), [(1.0,)]),
              "t.csv": (("n", "controller", "x"), [(1, "linear", 0.5), (2, "feedback", np.nan)])}
    with pytest.raises(ValueError, match=r"^t\.csv: column x holds the non-finite nan"):
        cli.emit_tables(tables, str(out), {"command": "t"})
    assert not out.exists()
    manifest = {"results": {"linear": {"exponent": 1.0}, "feedback": {"exponent": -np.inf}}}
    with pytest.raises(ValueError, match=r"results\.feedback\.exponent is not a finite"):
        cli.emit_tables({"a.csv": (("x",), [(1.0,)])}, str(out), manifest)
    assert not out.exists()


def test_a_non_finite_table_cell_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def nan_curves(pair, T_values, **kwargs):
        T = np.asarray(T_values, dtype=float)
        nan = np.column_stack([T, np.full(T.size, np.nan)])
        return dict.fromkeys(xp.CONTROLLER_FAMILIES, nan)

    monkeypatch.setattr(xp, "sweep_T", nan_curves)
    out = tmp_path / "o"
    assert cli.main(["sweep-t", "--n", "2", "--t-points", "2", "--steps", "64",
                     "--out", str(out)]) == 3
    assert "fig2_curve.csv: column P holds the non-finite nan" in capsys.readouterr().err
    assert not out.exists()


def test_replay_profile_tolerates_header_and_extra_columns(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("lambda,c2_full,c2_pair\n1.0,-1.5,-1.0\n0.5,-9.0,-8.0\n0.0,-2.0,-1.0\n")
    lams, c2 = cli.replay_profile(str(p))
    np.testing.assert_array_equal(lams, [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(c2, [-1.5, -9.0, -2.0])


@pytest.mark.parametrize(
    "instance",
    [["--seed", "6"],
     # unique ground state, exactly degenerate excited pair: the level
     # equations refuse it and both runs take the diagonalization route
     ["--epsilon", "1,1,0"]],
    ids=["seed-6", "degenerate-excited-pair"],
)
def test_replayed_run_matches_live_run(tmp_path, instance):
    args = ["--n", "2", *instance, "--controller", "feedback", "--k", "0.08"]
    out_live = tmp_path / "live"
    assert cli.main(["run", *args, "--out", str(out_live)]) == 0

    out_prof = tmp_path / "prof"
    assert cli.main(["profile", "--n", "2", *instance, "--resolution", "512",
                     "--out", str(out_prof)]) == 0
    out_replay = tmp_path / "replay"
    assert cli.main(["run", *args, "--replay", str(out_prof / "profile.csv"),
                     "--out", str(out_replay)]) == 0

    live = json.loads((out_live / "manifest.json").read_text())["results"]
    rep = json.loads((out_replay / "manifest.json").read_text())["results"]
    assert rep["P"] == pytest.approx(live["P"], abs=1e-4)
    assert rep["T"] == pytest.approx(live["T"], rel=1e-4)


# ----------------------------------------------------------------- determinism


def test_sweep_t_reruns_are_byte_identical(tmp_path):
    args = ["sweep-t", "--n", "2", "--seed", "8", "--t-points", "4",
            "--steps", "256"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert (a / "fig2_curve.csv").read_bytes() == (b / "fig2_curve.csv").read_bytes()


def test_sweep_t_in_absolute_units_scans_the_grid_as_given(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["sweep-t", "--n", "2", "--seed", "8", "--t-units", "abs", "--t-min", "0.3",
                     "--t-max", "7", "--t-points", "5", "--steps", "64", "--out", str(out)]) == 0
    lines = (out / "fig2_curve.csv").read_text().splitlines()
    assert lines[0] == "controller,T,P"
    rows = [line.split(",") for line in lines[1:]]
    for fam in ("linear", "feedback"):
        T = [float(t) for controller, t, _ in rows if controller == fam]
        np.testing.assert_array_equal(T, np.linspace(0.3, 7.0, 5))
    assert "T_ad" not in json.loads((out / "manifest.json").read_text()).get("results", {})


def test_run_trajectory_dump(tmp_path):
    out = tmp_path / "o"
    assert cli.main(
        ["run", "--n", "2", "--seed", "5", "--controller", "linear",
         "--t-total", "1.0", "--steps", "256", "--sample-stride", "64",
         "--out", str(out)]
    ) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "lambda,t,P_instantaneous,gap,abs_curvature"
    assert len(lines) > 3
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 1.0 and first[1] == 0.0


def test_plots_flag_writes_svg(tmp_path, monkeypatch):
    argv = ["profile", "--n", "2", "--seed", "5", "--resolution", "16", "--plots"]
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 0
    svg = (out / "profile.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    # a plot that fails to render leaves no table and no manifest either
    def broken_renderer(*args, **kwargs):
        raise ValueError("cannot render")

    monkeypatch.setattr(cli, "_plot_lines", broken_renderer)
    out = tmp_path / "broken"
    assert cli.main([*argv, "--out", str(out)]) == 3  # a failure inside the command
    assert not out.exists()


def test_a_command_runs_without_importing_scipy(tmp_path):
    # in a fresh interpreter: this test session may have scipy loaded already
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from aqcsim import cli\n"
        f"code = cli.main(['profile', '--n', '2', '--resolution', '64', '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    path = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "profile.csv").is_file()
