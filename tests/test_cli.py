"""End-to-end tests of the command-line interface."""

import csv
from pathlib import Path

import pytest

import alebench
from alebench import cli
from alebench.bench import parse_config
from alebench.cli import main
from alebench.errors import ConfigError

TINY = [
    "--set", "frame.h=200",
    "--set", "run.n_seeds=1",
    "--set", "run.snr_grid=0",
    "--set", "pso.n_particles=5",
    "--set", "pso.max_iters=5",
]


def test_single_experiment_writes_files(tmp_path, capsys):
    code = main(["ber_awgn", "--out", str(tmp_path)] + TINY)
    assert code == 0
    for suffix in ("raw.csv", "mean.csv", "meta.txt"):
        assert (tmp_path / f"ber_awgn_{suffix}").exists()
    assert "ber_awgn" in capsys.readouterr().out


def test_run_all_covers_every_kind(tmp_path):
    # sweep grids stay at their per-kind defaults; everything else is tiny
    code = main(["run-all", "--out", str(tmp_path)] + TINY + ["--set", "pso.tol=0.1"])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    for kind in ("particle_sweep", "step_sweep", "ber_awgn", "ber_nonlinear"):
        assert f"{kind}_raw.csv" in names


def test_meta_omits_keys_the_kind_ignores(tmp_path):
    ignored = ["--set", "channel.profiles=5.8GHz", "--set", "run.sweep_values=0.1"]
    assert main(["ber_awgn", "--out", str(tmp_path)] + TINY + ignored) == 0
    meta = (tmp_path / "ber_awgn_meta.txt").read_text()
    assert "channel.profiles" not in meta
    assert "run.sweep_values" not in meta


def test_run_all_accepts_keys_some_kinds_ignore(tmp_path):
    # one shared config: the profile only applies to ber_nonlinear and the
    # sweep value (2 particles, or a step size that diverges) only to the sweeps
    ignored = ["--set", "channel.profiles=5.8GHz", "--set", "run.sweep_values=2"]
    code = main(["run-all", "--out", str(tmp_path)] + TINY + ["--set", "pso.tol=0.1"] + ignored)
    assert code == 0
    assert "channel.profiles = 5.8GHz" in (tmp_path / "ber_nonlinear_meta.txt").read_text()
    assert "run.sweep_values = 2.0" in (tmp_path / "step_sweep_meta.txt").read_text()
    assert "channel.profiles" not in (tmp_path / "ber_awgn_meta.txt").read_text()


def test_run_all_rejects_bad_profile_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run-all", "--out", str(out), "--set", "channel.profiles=3.9GHz"] + TINY)
    assert code == 1
    assert "channel.profiles" in capsys.readouterr().err
    assert not out.exists()


def test_run_all_parses_every_kind_before_running_any(tmp_path, monkeypatch):
    def parse_all_but_last(text, kind, overrides):
        if kind == "ber_nonlinear":
            raise ConfigError("experiment.kind", "rejected by the test")
        return parse_config(text, kind=kind, overrides=overrides)

    monkeypatch.setattr(cli, "parse_config", parse_all_but_last)
    out = tmp_path / "out"
    assert main(["run-all", "--out", str(out)] + TINY) == 1
    assert not out.exists()


def test_seed_flag_overrides_base_seed(tmp_path):
    main(["ber_awgn", "--out", str(tmp_path / "a"), "--set", "run.base_seed=1"] + TINY)
    main(["ber_awgn", "--out", str(tmp_path / "b"), "--set", "run.base_seed=1"] + TINY)
    main(["ber_awgn", "--out", str(tmp_path / "c"), "--set", "run.base_seed=2"] + TINY)
    a = (tmp_path / "a" / "ber_awgn_raw.csv").read_bytes()
    b = (tmp_path / "b" / "ber_awgn_raw.csv").read_bytes()
    c = (tmp_path / "c" / "ber_awgn_raw.csv").read_bytes()
    assert a == b
    assert a != c


def test_config_file_plus_flag_override(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("frame.h = 200\nrun.n_seeds = 2\nrun.snr_grid = 0\n"
                   "pso.n_particles = 5\npso.max_iters = 5\n")
    code = main([
        "ber_awgn", "--config", str(cfg), "--out", str(tmp_path),
        "--set", "run.n_seeds=1",
    ])
    assert code == 0
    raw = (tmp_path / "ber_awgn_raw.csv").read_text().splitlines()
    assert len(raw) == 1 + 2  # header + 1 seed x 2 algorithms


@pytest.mark.parametrize("flag", [["--seeds", "1"], ["--seed", "7"]])
def test_removed_seed_flags_are_unrecognized(tmp_path, capsys, flag):
    """--seeds and --seed are gone: the seeds are set by run.n_seeds and
    run.base_seed, from the config file or --set, and argparse refuses
    either flag before anything is written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["ber_awgn", "--out", str(out)] + TINY + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_byte_order_mark(tmp_path):
    """A UTF-8 BOM, as some editors save one, is not part of the first key."""
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("run.base_seed = 7\n", encoding="utf-8-sig")
    assert main(["ber_awgn", "--config", str(cfg), "--out", str(tmp_path)] + TINY) == 0
    assert "run.base_seed = 7\n" in (tmp_path / "ber_awgn_meta.txt").read_text()


def test_unknown_key_fails_with_diagnostic(tmp_path, capsys):
    code = main(["ber_awgn", "--out", str(tmp_path), "--set", "momentum=1"])
    assert code == 1
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["set", "config"])
@pytest.mark.parametrize("key, value", [("pso.per_dimension_draws", "true"), ("mod.phase_offset", "0.25")])
def test_removed_key_fails_before_running(tmp_path, capsys, key, value, route):
    """A key the config no longer has, from --set or from the config file,
    is rejected as unknown before anything is written."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"{key} = {value}\n")
    source = ["--set", f"{key}={value}"] if route == "set" else ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["ber_awgn", "--out", str(out)] + TINY + source) == 1
    assert capsys.readouterr().err == f"error: {key}: unknown key\n"
    assert not out.exists()


def test_override_without_equals_fails_with_diagnostic(tmp_path, capsys):
    """An item with no '=' or with nothing before it is malformed."""
    for item in ("foo", "=5", " = 5"):
        code = main(["ber_awgn", "--out", str(tmp_path), "--set", item])
        assert code == 1
        assert capsys.readouterr().err == f"error: {item}: expected KEY=VALUE\n"


@pytest.mark.parametrize("flags, key", [
    (["--set", "lms.mu=0.01", "--set", "lms.mu=0.02"], "lms.mu"),
    (["--set", "lms.mu=0.01", "--set", " lms.mu = 0.01"], "lms.mu"),
])
def test_key_set_twice_fails_before_running(tmp_path, capsys, flags, key):
    """A key set twice on the command line is named before anything runs,
    not silently taken from the last setting."""
    out = tmp_path / "out"
    assert main(["ber_awgn", "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"error: {key}: duplicate key\n"
    assert not out.exists()


@pytest.mark.parametrize("route", ["set", "config"])
def test_kind_other_than_the_command_fails_before_running(tmp_path, capsys, route):
    """An experiment.kind naming another kind than the command, from --set
    or from the config file, is named before anything runs, not silently
    overridden by the command."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("experiment.kind = step_sweep\n")
    source = ["--set", "experiment.kind=step_sweep"] if route == "set" else ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["ber_awgn", "--out", str(out)] + TINY + source) == 1
    assert capsys.readouterr().err.startswith("error: experiment.kind: ")
    assert not out.exists()


def test_meta_file_runs_again_under_its_own_kind(tmp_path):
    """A meta file names its kind, and parses back under that command."""
    assert main(["step_sweep", "--out", str(tmp_path / "a")] + TINY) == 0
    meta = tmp_path / "a" / "step_sweep_meta.txt"
    assert main(["step_sweep", "--config", str(meta), "--out", str(tmp_path / "b")]) == 0
    for suffix in ("raw.csv", "mean.csv", "meta.txt"):
        assert (tmp_path / "a" / f"step_sweep_{suffix}").read_bytes() == (tmp_path / "b" / f"step_sweep_{suffix}").read_bytes()


def test_crossed_lms_lane_writes_inf_rows(tmp_path):
    """The 7th of these 8 runs crosses the LMS weight bound: the run exits
    0 and writes that lane's infinite power into both CSVs."""
    cfg = tmp_path / "crossing.cfg"
    cfg.write_text(
        "frame.h = 300\npso.n_particles = 6\npso.max_iters = 8\n"
        "lms.mu = 0.15\nrun.snr_grid = 10, -5\nrun.n_seeds = 4\n"
    )
    assert main(["ber_awgn", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for table in ("raw", "mean"):
        with open(tmp_path / "out" / f"ber_awgn_{table}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "inf" in {row["mse"] for row in rows if row["algorithm"] == "LMS"}, table


def test_frame_longer_than_a_batch_fails_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run-all", "--out", str(out), "--set", "frame.h=100000000"])
    assert code == 1
    assert "frame.h" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_snr_beyond_the_limit_fails_before_running(tmp_path, capsys, snr):
    out = tmp_path / "out"
    code = main(["ber_awgn", "--out", str(out), "--set", f"run.snr_grid={snr}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: run.snr_grid: ")
    assert not out.exists()


def test_start_range_numpy_cannot_draw_fails_before_running(tmp_path, capsys):
    """The swarm's start box is the constant pso.INIT_RANGE, not a key: a
    range numpy could not draw from is refused as an unknown key at parse
    time, and nothing is written."""
    out = tmp_path / "out"
    code = main(["run-all", "--out", str(out), "--set", "run.n_seeds=1", "--set", "pso.init_range=1e308"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: pso.init_range: unknown key\n"
    assert not out.exists()


def test_run_count_above_the_cap_fails_before_running(tmp_path, capsys, monkeypatch):
    """5,000 seeds fit every default sweep but ber_nonlinear's 33 points,
    and ber_nonlinear comes last: run-all still runs nothing."""
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, jobs: ran.append(spec.kind))
    out = tmp_path / "out"
    code = main(["run-all", "--out", str(out), "--set", "run.n_seeds=5000"])
    assert code == 1
    assert "run.n_seeds" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_jobs_flag_does_not_change_bytes(tmp_path):
    args = ["ber_awgn", "--set", "frame.h=200", "--set", "run.n_seeds=2", "--set", "run.snr_grid=-2,2",
            "--set", "pso.n_particles=5", "--set", "pso.max_iters=5"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    serial = (tmp_path / "serial" / "ber_awgn_raw.csv").read_bytes()
    par = (tmp_path / "par" / "ber_awgn_raw.csv").read_bytes()
    assert serial == par


def test_jobs_below_one_fails_with_diagnostic(tmp_path, capsys):
    code = main(["ber_awgn", "--out", str(tmp_path / "out"), "--jobs", "0"] + TINY)
    assert code == 1
    assert "jobs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unusable_out_fails_before_running(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, jobs: ran.append(spec.kind))
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code = main(["run-all", "--out", str(out)] + TINY)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert ran == []


def test_removed_twin_kind_is_an_invalid_choice(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["mse_vs_snr", "--out", str(tmp_path)] + TINY)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_version_flag(capsys):
    """--version prints the package's version, which is pyproject.toml's."""
    import tomllib  # Python 3.11+; the package itself supports 3.10

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        version = tomllib.load(f)["project"]["version"]
    assert alebench.__version__ == version
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"alebench {version}\n"
