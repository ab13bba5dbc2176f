"""Tests for config parsing, the experiment runner, and CSV emission."""

import concurrent.futures
import dataclasses
import importlib
import math
import pkgutil
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import alebench
from alebench import bench, pso
from alebench.ale import MAX_TAPS, AleConfig, _residual
from alebench.bench import (
    DEFAULT_BASE_SEED,
    ExperimentSpec,
    ResultTable,
    derive_run_seed,
    emit_csv,
    parse_config,
    run_experiment,
    spec_to_text,
)
from alebench.errors import ConfigError
from alebench.lms import lms_batch
from alebench.pso import MAX_ITERS, MAX_PARTICLES, PsoConfig, pso_batch
from alebench.signal import ModConfig, demodulate, generate_bits, modulate
from costs import swarm_cost

SMALL = """
frame.h = 300
run.n_seeds = 2
run.snr_grid = -2, 2
pso.n_particles = 6
pso.max_iters = 8
"""

# Sweeps whose runs sit in batches of any size.  step_sweep: mu = 5 diverges
# on every frame and mu = 0.25 on one, beside converging lanes.
_BATCH_DOCS = {
    "step_sweep": "frame.h = 300\nrun.sweep_values = 0.01, 0.25, 5\nrun.snr_grid = -2, 4\nrun.n_seeds = 2\n",
    "ber_nonlinear": SMALL + "channel.profiles = 60MHz, 5.8GHz\n",
}

# Metric runs on which some LMS lanes cross the weight bound, beside lanes
# that do not.  ber_awgn: 1 of its 8 lanes crosses, the 7th (-5 dB, seed
# index 2); ber_nonlinear: every one of its 22 lanes crosses.
_DIVERGING_DOCS = {
    kind: "frame.h = 300\npso.n_particles = 6\npso.max_iters = 8\n" + doc
    for kind, doc in (
        ("ber_awgn", "lms.mu = 0.15\nrun.snr_grid = 10, -5\nrun.n_seeds = 4\n"),
        ("ber_nonlinear", "lms.mu = 10\nrun.n_seeds = 2\nchannel.profiles = 5.8GHz\n"),
    )
}


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        spec = parse_config("")
        assert spec.h == 10_000
        assert spec.mod.m == 2
        assert spec.ale.taps == 5
        assert spec.pso.n_particles == 60
        assert spec.mu == 0.01
        assert spec.n_seeds == 10
        assert spec.base_seed == DEFAULT_BASE_SEED
        assert spec.snr_grid == tuple(float(s) for s in range(-10, 11, 2))

    def test_kind_specific_defaults(self):
        step = parse_config("", kind="step_sweep")
        assert step.snr_grid == (-2.0,)
        assert step.sweep_values == (0.005, 0.01, 0.02, 0.04, 0.08, 0.2)
        particle = parse_config("", kind="particle_sweep")
        assert particle.sweep_values == (10, 20, 30, 40, 50, 60)
        nonlinear = parse_config("", kind="ber_nonlinear")
        assert nonlinear.profiles == ("60MHz", "2.4GHz", "5.8GHz")
        assert parse_config("", kind="ber_awgn").profiles == ()

    @pytest.mark.parametrize("key", [
        "momentum", "run.decision_stream", "pso.c1", "pso.c2", "pso.init_range", "pso.v_max", "pso.inertia",
    ])
    def test_unknown_key_rejected(self, key):
        """Any key outside the schema, a removed one among them."""
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"{key} = 0.9")
        assert str(excinfo.value) == f"{key}: unknown key"

    def test_zero_taps_rejected_with_key_path(self):
        with pytest.raises(ConfigError, match="ale"):
            parse_config("ale.taps = 0")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="frame.h"):
            parse_config("frame.h = ten")

    @pytest.mark.parametrize("key, raw, reason", [
        ("frame.h", "ten", "expected an integer"),
        ("lms.mu", "fast", "expected a number"),
    ])
    def test_unparsable_value_rejected(self, key, raw, reason):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"{key} = {raw}")
        assert str(excinfo.value) == f"{key}: {reason}, got {raw!r}"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("lms.mu = 0.01\nlms.mu = 0.02")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("this is not a key value pair")
        with pytest.raises(ConfigError) as excinfo:
            parse_config("lms.mu = 0.02\n= 5\n")
        assert str(excinfo.value) == "line 2: expected 'key = value', got '= 5'"

    def test_comments_and_blanks_ignored(self):
        spec = parse_config("# a comment\n\nlms.mu = 0.03\n")
        assert spec.mu == 0.03

    def test_overrides_replace_document_values(self):
        spec = parse_config("lms.mu = 0.01", overrides={"lms.mu": "0.05"})
        assert spec.mu == 0.05

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("channel.profiles = 3.9GHz", kind="ber_nonlinear")

    def test_kinds_and_default_kind(self):
        assert bench.KINDS == ("particle_sweep", "step_sweep", "ber_awgn", "ber_nonlinear")
        assert parse_config("").kind == "ber_awgn"

    def test_removed_twin_kind_rejected_under_its_key(self):
        """mse_vs_snr was ber_awgn under another name; it is now unknown."""
        with pytest.raises(ConfigError) as excinfo:
            parse_config("experiment.kind = mse_vs_snr")
        assert excinfo.value.key == "experiment.kind"

    def test_round_trip_through_echo(self):
        """The echo leaves out what the kind ignores (SMALL's pso.n_particles
        for both sweeps), so there it is a fixed point rather than the spec."""
        for kind in ("ber_awgn", "step_sweep", "particle_sweep", "ber_nonlinear"):
            spec = parse_config(SMALL, kind=kind)
            again = parse_config(spec_to_text(spec))
            if kind.endswith("_sweep"):
                assert spec_to_text(again) == spec_to_text(spec)
            else:
                assert again == spec


class TestSeedDerivation:
    def test_pure_function_of_indices(self):
        assert derive_run_seed(1, 2, 3) == derive_run_seed(1, 2, 3)
        assert derive_run_seed(1, 2, 3) != derive_run_seed(1, 2, 4)
        assert derive_run_seed(1, 2, 3) != derive_run_seed(1, 3, 3)
        assert derive_run_seed(2, 2, 3) != derive_run_seed(1, 2, 3)

    def test_fits_in_unsigned_64(self):
        for idx in range(16):
            assert 0 <= derive_run_seed(DEFAULT_BASE_SEED, idx, idx) < 2**64


class TestRunExperiment:
    def test_metric_row_counts(self):
        table = run_experiment(parse_config(SMALL, kind="ber_awgn"))
        # 2 SNR points x 2 seeds x 2 algorithms
        assert len(table.raw_rows) == 8
        # 2 SNR points x 2 algorithms
        assert len(table.mean_rows) == 4
        for row in table.mean_rows:
            assert row["n_seeds"] == 2

    def test_metric_columns_schema(self):
        """The residual decides one symbol per sample from warmup on."""
        for extra in ("", "ale.delay = 3\nmod.m = 8\n"):
            spec = parse_config(SMALL + extra, kind="ber_awgn")
            table = run_experiment(spec)
            assert table.raw_columns[:9] == (
                "snr_db", "algorithm", "seed", "ber", "mse", "mu", "n_particles", "L", "delta",
            )
            for row in table.raw_rows:
                assert 0.0 <= row["ber"] <= 1.0
                assert row["mse"] >= 0.0
                assert row["compared_bits"] == spec.mod.bits_per_symbol * (spec.h - spec.ale.warmup)

    def test_metric_batch_draws_each_runs_bits_once(self, monkeypatch):
        calls = []

        def counting(count, seed):
            calls.append(seed)
            return generate_bits(count, seed)

        monkeypatch.setattr(bench, "generate_bits", counting)
        spec = parse_config(SMALL, kind="ber_awgn")
        table = run_experiment(spec)
        runs = len(spec.snr_grid) * spec.n_seeds
        assert len(calls) == runs == len(set(calls))
        assert len(table.raw_rows) == 2 * runs

    def test_particle_sweep_emits_full_histories(self):
        spec = parse_config(
            "frame.h = 300\npso.max_iters = 8\nrun.n_seeds = 2\n"
            "run.sweep_values = 3, 5\nrun.snr_grid = -2\n",
            kind="particle_sweep",
        )
        table = run_experiment(spec)
        # early stopping disabled for this sweep: 2 sizes x 2 seeds x 8 iterations
        assert len(table.raw_rows) == 2 * 2 * 8
        for row in table.raw_rows:
            assert 1 <= row["iteration"] <= 8

    def test_step_sweep_maps_divergence_to_inf(self):
        spec = parse_config(
            "frame.h = 2000\nrun.n_seeds = 1\nrun.sweep_values = 0.01, 5.0\nrun.snr_grid = -2\n",
            kind="step_sweep",
        )
        table = run_experiment(spec)
        by_mu = {row["mu"]: row["mse"] for row in table.raw_rows}
        assert math.isfinite(by_mu[0.01])
        assert by_mu[5.0] == math.inf

    def test_first_seeds_stable_when_extending(self):
        base = parse_config(SMALL, kind="ber_awgn")
        extended = parse_config(SMALL, overrides={"run.n_seeds": "4"}, kind="ber_awgn")
        small_rows = run_experiment(base).raw_rows
        big_rows = run_experiment(extended).raw_rows
        small_by_key = {(r["snr_db"], r["algorithm"], r["seed"]): r for r in small_rows}
        hits = 0
        for row in big_rows:
            key = (row["snr_db"], row["algorithm"], row["seed"])
            if key in small_by_key:
                assert row == small_by_key[key]
                hits += 1
        assert hits == len(small_rows)

    def test_parallel_jobs_identical(self, tmp_path):
        spec = parse_config(SMALL, kind="ber_awgn")
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        a = emit_csv(serial, tmp_path / "serial")
        b = emit_csv(parallel, tmp_path / "parallel")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_capped_by_tasks_and_cpus(self, monkeypatch):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_experiment imports the pool class only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = parse_config(SMALL, kind="step_sweep")  # 6 steps x 2 SNR x 2 seeds = 24 runs
        one_task = parse_config(SMALL, kind="step_sweep", overrides={
            "run.sweep_values": "0.01", "run.snr_grid": "0", "run.n_seeds": "1"})
        # the CPUs this process may run on, not the machine's count, cap the
        # pool; without sched_getaffinity the machine's count does
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        serial = run_experiment(spec, jobs=1)
        assert run_experiment(spec, jobs=10_000) == serial
        run_experiment(spec, jobs=2)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {1})
        assert run_experiment(spec, jobs=2) == serial  # one CPU: no pool
        monkeypatch.delattr(bench.os, "sched_getaffinity")
        run_experiment(spec, jobs=10_000)
        run_experiment(one_task, jobs=8)
        assert seen == [3, 2, 24]

    @pytest.mark.parametrize("kind, doc", [
        *(pytest.param(kind, doc, id=kind) for kind, doc in _BATCH_DOCS.items()),
        *(pytest.param(kind, doc, id=f"{kind}-crossing") for kind, doc in _DIVERGING_DOCS.items()),
    ])
    def test_bytes_independent_of_jobs_and_batch_budget(self, kind, doc, tmp_path, monkeypatch):
        spec = parse_config(doc, kind=kind)
        expected = [p.read_bytes() for p in emit_csv(run_experiment(spec), tmp_path / "ref")]
        default = bench._BATCH_SAMPLES
        for lanes in (1, 3, None):
            monkeypatch.setattr(bench, "_BATCH_SAMPLES", lanes * spec.h if lanes else default)
            for jobs in (1, 2):
                paths = emit_csv(run_experiment(spec, jobs=jobs), tmp_path / f"{lanes}-{jobs}")
                assert [p.read_bytes() for p in paths] == expected, (lanes, jobs)

    def test_runs_cut_into_contiguous_batches_by_budget(self, monkeypatch):
        seen = []
        lms_batch = bench.lms_batch

        def recording(frames, mus, ale):
            seen.append(len(frames))
            return lms_batch(frames, mus, ale)

        monkeypatch.setattr(bench, "lms_batch", recording)
        spec = parse_config(SMALL, kind="step_sweep")  # 24 runs of 300 samples
        default = bench._BATCH_SAMPLES
        for lanes, sizes in ((None, [24]), (1, [1] * 24), (3, [3] * 8), (7, [6] * 4), (0.5, [1] * 24)):
            monkeypatch.setattr(bench, "_BATCH_SAMPLES", int(lanes * spec.h) if lanes else default)
            seen.clear()
            run_experiment(spec)
            assert seen == sizes, lanes

    def test_short_frames_batched_at_most_64_lanes(self, monkeypatch):
        """Lanes per batch are capped whatever the frame length: 65 runs of
        12 samples fit one batch's sample budget but run as two batches."""
        seen = []
        lms_batch = bench.lms_batch

        def recording(frames, mus, ale):
            seen.append(len(frames))
            return lms_batch(frames, mus, ale)

        monkeypatch.setattr(bench, "lms_batch", recording)
        doc = "frame.h = 12\nrun.snr_grid = 0\nrun.n_seeds = 65\npso.n_particles = 4\npso.max_iters = 2\n"
        run_experiment(parse_config(doc))
        assert seen == [32, 33]

    @pytest.mark.parametrize("kind, calls", [
        ("particle_sweep", ["pso_batch"]),
        ("step_sweep", ["lms_batch"]),
        ("ber_awgn", ["pso_batch", "lms_batch"]),
        ("ber_nonlinear", ["pso_batch", "lms_batch"]),
    ])
    def test_lms_adapts_the_batch_frames_after_the_swarm(self, kind, calls, monkeypatch):
        """Every kind runs its kernels once per batch, through _run_batch,
        on its batch's frames array itself: the swarm searches them first,
        while they are intact, and lms_batch then writes the residuals
        over them."""
        seen, drawn = [], []
        batch_frames, lms_batch, pso_batch = bench._batch_frames, bench.lms_batch, bench.pso_batch

        def recording_frames(spec, runs):
            bases, pso_seeds, bits, frames = batch_frames(spec, runs)
            drawn.append(frames)
            return bases, pso_seeds, bits, frames

        def recording(name, fn):
            def call(frames, *args):
                seen.append((name, frames is drawn[-1]))
                return fn(frames, *args)
            return call

        monkeypatch.setattr(bench, "_batch_frames", recording_frames)
        monkeypatch.setattr(bench, "lms_batch", recording("lms_batch", lms_batch))
        monkeypatch.setattr(bench, "pso_batch", recording("pso_batch", pso_batch))
        run_experiment(parse_config(_BATCH_DOCS.get(kind, SMALL), kind=kind))
        assert len(drawn) == 1 and seen == [(name, True) for name in calls]

    @pytest.mark.parametrize("kind", list(_DIVERGING_DOCS))
    def test_crossed_lms_lanes_keep_their_rows_at_inf_power(self, kind):
        """Exactly the lanes lms_batch reports as crossed read mse = clean_mse
        = inf, and their ber is that of the decisions on their residual from
        ale.warmup on, the frame itself once the weights reset to 0.  Every
        other LMS row is finite; the PSO rows are those the same runs give
        at mu = 0.01, since the swarm does not read mu; and a mean row over
        a crossed lane reads inf."""
        spec = parse_config(_DIVERGING_DOCS[kind], kind=kind)
        points = bench._sweep_points(spec)
        runs = [(i, j) for i in range(len(points)) for j in range(spec.n_seeds)]
        _, _, bits, residuals = bench._batch_frames(spec, runs)
        _, diverged_at, _ = lms_batch(residuals, np.full(len(runs), spec.mu), spec.ale)  # written over the frames
        table = run_experiment(spec)
        lms_rows, pso_rows = table.raw_rows[::2], table.raw_rows[1::2]
        assert [row["algorithm"] for row in lms_rows] == ["LMS"] * len(runs)
        crossed = [row["mse"] == math.inf for row in lms_rows]
        assert crossed == list(diverged_at >= 0) and any(crossed)
        v0, k = spec.ale.warmup, spec.mod.bits_per_symbol
        for row, e, sent, n in zip(lms_rows, residuals, bits[:, k * v0 :], diverged_at):
            if n >= 0:
                assert row["clean_mse"] == math.inf
                assert row["ber"] == np.count_nonzero(demodulate(e[v0:], spec.mod) != sent) / sent.size
            else:
                assert math.isfinite(row["mse"]) and math.isfinite(row["clean_mse"])
        at_small_step = run_experiment(parse_config(_DIVERGING_DOCS[kind], kind=kind, overrides={"lms.mu": "0.01"}))
        assert pso_rows == at_small_step.raw_rows[1::2]
        crossed_points = {(row["snr_db"], row.get("profile")) for row, n in zip(lms_rows, diverged_at) if n >= 0}
        for row in table.mean_rows:
            if row["algorithm"] == "LMS":
                assert (row["mse"] == math.inf) == ((row["snr_db"], row.get("profile")) in crossed_points)

    @pytest.mark.parametrize("kind", bench.KINDS)
    def test_row_keys_are_the_table_columns(self, kind):
        """Every row holds exactly its CSV's columns: the CSV writer reads
        each row by its table's columns, so a stray key would be dropped
        without notice and a missing one fails the write."""
        table = run_experiment(parse_config(SMALL, kind=kind))
        assert table.raw_rows and table.mean_rows
        for row in table.raw_rows:
            assert set(row) == set(table.raw_columns)
        for row in table.mean_rows:
            assert set(row) == set(table.mean_columns)

    @pytest.mark.parametrize("kind", bench.KINDS)
    def test_rows_carry_their_runs_identity(self, kind, monkeypatch):
        """Every raw row names its run: the run's sweep point, its seed
        derive_run_seed(base_seed, sweep_idx, seed_idx) and the enhancer's
        L and delta, its runs in (sweep, seed) order, whatever the batch
        size or the parallelism, so any row can be rerun alone."""
        spec = parse_config(_BATCH_DOCS.get(kind, SMALL) + "ale.taps = 3\nale.delay = 2\n", kind=kind)
        points = bench._sweep_points(spec)
        per_run = {"particle_sweep": spec.pso.max_iters, "step_sweep": 1}.get(kind, 2)
        expected = [
            dict(point, seed=derive_run_seed(spec.base_seed, sweep_idx, seed_idx), L=3, delta=2)
            for sweep_idx, point in enumerate(points)
            for seed_idx in range(spec.n_seeds)
            for _ in range(per_run)
        ]
        monkeypatch.setattr(bench, "_BATCH_SAMPLES", spec.h)  # one run per batch
        for jobs in (1, 2):
            table = run_experiment(spec, jobs=jobs)
            assert [{c: row[c] for c in key} for row, key in zip(table.raw_rows, expected)] == expected
            assert len(table.raw_rows) == len(expected)
            assert all((row["L"], row["delta"]) == (3, 2) for row in table.mean_rows)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(parse_config(SMALL, kind="step_sweep"), jobs=0)

    @pytest.mark.parametrize("kind", ["ber_awgn", "ber_nonlinear"])
    def test_mse_is_the_named_algorithms_residual_power(self, kind):
        """A metric row's mse is mean |e|^2 from ale.warmup on, e the
        residual of the algorithm the row names: lms_batch's, or that of the
        swarm's best weights held fixed, whose mse is also their cost.
        clean_mse is the same residual's power about the symbols sent."""
        spec = parse_config(_BATCH_DOCS.get(kind, SMALL), kind=kind)
        points = bench._sweep_points(spec)
        runs = [(i, j) for i in range(len(points)) for j in range(spec.n_seeds)]
        _, pso_seeds, bits, frames = bench._batch_frames(spec, runs)
        lms_residuals = frames.copy()  # the swarm below reads the frames
        lms_batch(lms_residuals, np.full(len(runs), spec.mu), spec.ale)
        weights, _ = pso_batch(frames, pso_seeds, spec.pso, spec.ale)
        rows = run_experiment(spec).raw_rows
        v0, k = spec.ale.warmup, spec.mod.bits_per_symbol
        assert len(rows) == 2 * len(runs)
        for lane, (d, sent, lms_e, w) in enumerate(zip(frames, bits, lms_residuals, weights)):
            clean = modulate(sent[k * v0 :], spec.mod)
            residuals = (lms_e[v0:], _residual(d, w, spec.ale))
            for row, algorithm, e in zip(rows[2 * lane : 2 * lane + 2], ("LMS", "PSO"), residuals):
                assert row["algorithm"] == algorithm
                assert row["mse"] == float(np.mean(np.abs(e) ** 2))
                assert row["clean_mse"] == float(np.mean(np.abs(e - clean) ** 2))
            assert rows[2 * lane + 1]["mse"] == pytest.approx(swarm_cost(w, d, spec.ale), rel=1e-12)

    @pytest.mark.parametrize("geometry", ["", "ale.taps = 3\nale.delay = 4\n"], ids=["default", "L3-delta4"])
    def test_step_sweep_mse_is_the_lms_residual_power(self, geometry):
        """A step_sweep row's mse is the LMS residual power from ale.warmup
        on, whatever the enhancer geometry sets that start to."""
        spec = parse_config(
            "frame.h = 300\nrun.sweep_values = 0.02\nrun.snr_grid = -2\nrun.n_seeds = 1\n" + geometry,
            kind="step_sweep",
        )
        (row,) = run_experiment(spec).raw_rows
        _, _, _, frames = bench._batch_frames(spec, [(0, 0)])
        lms_batch(frames, [0.02], spec.ale)
        (e,) = frames
        assert row["mse"] == float(np.mean(np.abs(e)[spec.ale.warmup :] ** 2))

    def test_overflowing_powers_are_inf_without_warning(self, monkeypatch):
        """Swarm weights drawn near 1e160 give an output whose squared
        residual overflows: the PSO row's powers read inf, and no warning
        escapes (warnings are errors under this suite), while the LMS row,
        adapted from zero weights, stays finite.  The default start box
        draws no such weights; a patched one does."""
        monkeypatch.setattr(pso, "INIT_RANGE", 1e160)
        spec = parse_config("frame.h = 200\nrun.n_seeds = 1\nrun.snr_grid = 0")
        lms_row, pso_row = run_experiment(spec).raw_rows
        assert (lms_row["algorithm"], pso_row["algorithm"]) == ("LMS", "PSO")
        assert pso_row["mse"] == pso_row["clean_mse"] == math.inf
        assert math.isfinite(lms_row["mse"])

    @pytest.mark.parametrize("kind, point", [
        ("ber_awgn", {"snr_db": 0.0}),
        ("ber_nonlinear", {"profile": "60MHz", "snr_db": 0.0}),
    ])
    def test_overflowing_pso_output_names_its_run(self, kind, point, monkeypatch):
        """Seed index 1's swarm starts near the largest float: its global
        best costs a finite amount, but its filtered output overflows, so no
        bit can be decided on its residual.  The error names the run by its
        seed, its raw rows' ``seed`` cell, at any parallelism: a residual
        that overflows is a fault, where an LMS lane that crosses the weight
        bound keeps its rows.  No config reaches
        this (a swarm stays within pso.INIT_RANGE + max_iters * pso.V_MAX),
        so the start box is patched; the pool's workers are forked and
        inherit the patch."""
        monkeypatch.setattr(pso, "INIT_RANGE", 8.98e307)
        doc = "frame.h = 200\nrun.n_seeds = 2\nrun.snr_grid = 0\npso.max_iters = 1\n"
        spec = parse_config(doc, kind=kind)
        seed = derive_run_seed(spec.base_seed, bench._sweep_points(spec).index(point), 1)
        for jobs in (1, 2):
            with pytest.raises(RuntimeError) as excinfo:
                run_experiment(spec, jobs=jobs)
            assert str(excinfo.value) == f"{kind} failed at run seed {seed}: PSO residual is not finite"

    def test_nonlinear_rows_carry_profile(self):
        spec = parse_config(
            "frame.h = 300\nrun.n_seeds = 1\nrun.snr_grid = 4\n"
            "pso.n_particles = 6\npso.max_iters = 8\nchannel.profiles = 60MHz\n",
            kind="ber_nonlinear",
        )
        table = run_experiment(spec)
        assert {row["profile"] for row in table.raw_rows} == {"60MHz"}
        assert "profile" in table.raw_columns


class TestEmitCsv:
    def test_reemit_identical_bytes(self, tmp_path):
        table = run_experiment(parse_config(SMALL, kind="ber_awgn"))
        first = emit_csv(table, tmp_path / "one")
        second = emit_csv(table, tmp_path / "two")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_header_only_when_no_rows(self, tmp_path):
        table = ResultTable(
            kind="ber_awgn",
            raw_columns=("snr_db", "algorithm"),
            raw_rows=(),
            mean_columns=("snr_db",),
            mean_rows=(),
            metadata="# empty\n",
        )
        paths = emit_csv(table, tmp_path)
        assert paths[0].read_text() == "snr_db,algorithm\n"
        assert paths[1].read_text() == "snr_db\n"

    def test_metadata_echo_parses_back(self, tmp_path):
        spec = parse_config(SMALL, kind="ber_awgn")
        table = run_experiment(spec)
        paths = emit_csv(table, tmp_path)
        assert parse_config(paths[2].read_text()) == spec

    def test_failed_write_leaves_previous_outputs(self, tmp_path, monkeypatch):
        def table(tag):
            return ResultTable(
                kind="ber_awgn",
                raw_columns=("snr_db", "algorithm"),
                raw_rows=({"snr_db": 0.0, "algorithm": tag},),
                mean_columns=("snr_db", "algorithm"),
                mean_rows=({"snr_db": 0.0, "algorithm": tag},),
                metadata=f"# {tag}\n",
            )

        emit_csv(table("old"), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_text = bench._write_text

        def fail_on_mean(path, text):
            if "_mean.csv" in path.name:
                write_text(path, text[: len(text) // 2])
                raise OSError("disk full")
            write_text(path, text)

        monkeypatch.setattr(bench, "_write_text", fail_on_mean)
        with pytest.raises(OSError, match="disk full"):
            emit_csv(table("new"), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # a row without one of its table's columns fails before any file is written
        monkeypatch.undo()
        with pytest.raises(KeyError, match="algorithm"):
            emit_csv(replace(table("new"), mean_rows=({"snr_db": 0.0},)), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_cells_take_the_csv_module_conversion(self, tmp_path):
        """No value is an empty cell, a float (numpy's too) its shortest
        round-trip text, anything else its str, quoted when it holds a comma.
        A one-column row is one cell, a string too; a zero-column row is an
        empty line."""
        values = (None, -0.0, math.inf, math.nan, 1e-310, 2**64 - 1, "a,b", np.float64(0.5))
        columns = tuple(f"c{i}" for i in range(len(values)))
        table = ResultTable(
            kind="ber_awgn",
            raw_columns=columns,
            raw_rows=(dict(zip(columns, values)),),
            mean_columns=(),
            mean_rows=({}, {}),
            metadata="",
        )
        paths = emit_csv(table, tmp_path)
        assert paths[0].read_text().splitlines()[1] == ',-0.0,inf,nan,1e-310,18446744073709551615,"a,b",0.5'
        assert paths[1].read_text() == "\n\n\n"
        one_column = replace(table, raw_columns=("algorithm",), raw_rows=({"algorithm": "PSO"},))
        assert emit_csv(one_column, tmp_path)[0].read_text() == "algorithm\nPSO\n"

    def test_numpy_scalar_spec_runs_and_echoes(self, tmp_path):
        """A library caller may build a spec from numpy scalars: it runs, its
        meta echo parses back to it, and its cells print as numbers."""
        spec = replace(
            parse_config("run.n_seeds = 1\npso.n_particles = 4\npso.max_iters = 3"),
            h=np.int64(200),
            mu=np.float64(0.02),
            snr_grid=(np.float64(-2.0),),
        )
        table = run_experiment(spec)
        assert parse_config(table.metadata) == spec
        raw = emit_csv(table, tmp_path)[0].read_text().splitlines()
        mu = raw[0].split(",").index("mu")
        assert [line.split(",")[mu] for line in raw[1:]] == ["0.02", ""]

    def test_lf_line_endings(self, tmp_path):
        table = run_experiment(parse_config(SMALL, kind="ber_awgn"))
        paths = emit_csv(table, tmp_path)
        data = paths[0].read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestSpecValidation:
    def test_frame_too_short_for_filter(self):
        with pytest.raises(ConfigError):
            parse_config("frame.h = 5")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope")

    def test_fractional_particle_count_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("run.sweep_values = 10.5", kind="particle_sweep")

    def test_nan_and_negative_infinite_snr_rejected(self):
        for grid in ("0, nan", "-inf", "0, -inf"):
            with pytest.raises(ConfigError, match="run.snr_grid"):
                parse_config(f"run.snr_grid = {grid}")

    def test_infinite_snr_accepted(self):
        assert parse_config("run.snr_grid = 0, inf").snr_grid == (0.0, math.inf)

    def test_duplicate_grid_values_rejected(self):
        with pytest.raises(ConfigError, match="run.snr_grid"):
            parse_config("run.snr_grid = -2, 0, -2")
        with pytest.raises(ConfigError, match="run.snr_grid"):
            parse_config("run.snr_grid = 0, -0")
        with pytest.raises(ConfigError, match="run.sweep_values"):
            parse_config("run.sweep_values = 10, 20, 10", kind="particle_sweep")
        with pytest.raises(ConfigError, match="run.sweep_values"):
            parse_config("run.sweep_values = 0.01, 0.010", kind="step_sweep")

    def test_infinite_particle_count_rejected(self):
        with pytest.raises(ConfigError, match="run.sweep_values"):
            parse_config("run.sweep_values = 10, inf", kind="particle_sweep")

    @pytest.mark.parametrize("key, raw", [
        ("frame.h", "5"),
        ("run.n_seeds", "0"),
        ("run.base_seed", "-1"),
        ("mod.m", "1"),
        ("mod.m", "3"),
        ("mod.m", "32"),
        ("ale.taps", "0"),
        ("ale.taps", "20000"),
        ("ale.delay", "0"),
        ("lms.mu", "-0.1"),
        ("pso.n_particles", "0"),
        ("pso.max_iters", "0"),
        ("pso.tol", "-1"),
        ("pso.patience", "0"),
        ("pso.tol", "nan"),
        ("pso.tol", "-inf"),
        ("pso.n_particles", str(MAX_PARTICLES + 1)),
        ("pso.max_iters", str(MAX_ITERS + 1)),
        ("pso.patience", "-1"),
        ("channel.profiles", "60MHz, 60MHz"),
        ("run.snr_grid", "0, -0.0"),
        ("run.snr_grid", "4000"),
    ])
    def test_rejected_value_names_its_key(self, key, raw):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"{key} = {raw}")
        assert excinfo.value.key == key
        assert str(excinfo.value).startswith(f"{key}: ")

    def test_frame_too_short_for_longer_filter_names_frame_h(self):
        # each value is valid alone; together the frame cannot hold the filter
        with pytest.raises(ConfigError) as excinfo:
            parse_config("frame.h = 15\nale.taps = 20")
        assert excinfo.value.key == "frame.h"

    def test_frame_longer_than_a_batch_rejected(self):
        """Parse time only: a frame this long is never run."""
        assert parse_config(f"frame.h = {bench._BATCH_SAMPLES}").h == bench._BATCH_SAMPLES
        for h in (bench._BATCH_SAMPLES + 1, 100_000_000):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(f"frame.h = {h}")
            assert excinfo.value.key == "frame.h"

    def test_run_count_capped(self):
        """Sweep points x seeds above bench._MAX_RUNS is rejected at parse
        time, under run.n_seeds; those runs are never listed or run."""
        cap = bench._MAX_RUNS
        assert parse_config(f"run.n_seeds = {cap // 33}", kind="ber_nonlinear").n_seeds == cap // 33
        assert parse_config(f"run.n_seeds = {cap}\nrun.snr_grid = 0").n_seeds == cap
        for kind, seeds in (("ber_nonlinear", cap // 33 + 1), ("ber_nonlinear", 10**9),
                            ("step_sweep", cap // 6 + 1), ("ber_awgn", cap // 11 + 1)):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(f"run.n_seeds = {seeds}", kind=kind)
            assert excinfo.value.key == "run.n_seeds"

    def test_run_count_capped_for_a_spec_built_directly(self):
        cap = bench._MAX_RUNS
        assert ExperimentSpec(kind="ber_awgn", snr_grid=(0.0,), n_seeds=cap).n_seeds == cap
        for grid, seeds in (((0.0,), 10**9), ((0.0,), cap + 1), ((0.0, 1.0), cap // 2 + 1)):
            with pytest.raises(ConfigError) as excinfo:
                ExperimentSpec(kind="ber_awgn", snr_grid=grid, n_seeds=seeds)
            assert excinfo.value.key == "run.n_seeds"

    def test_first_rejected_key_in_schema_order_named(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("pso.patience = 0\npso.tol = -1\nrun.n_seeds = 0")
        assert excinfo.value.key == "pso.tol"

    @pytest.mark.parametrize("doc, key", [
        ("pso.tol = -1\nchannel.profiles = nope", "pso.tol"),
        ("pso.tol = -1\nrun.snr_grid = 1, 1", "pso.tol"),
        ("frame.h = 5\npso.tol = -1", "pso.tol"),
        ("lms.mu = -1\npso.tol = -1", "pso.tol"),
        ("frame.h = 640001\npso.tol = -1", "pso.tol"),
    ], ids=["profile_name", "repeated_snr", "spec_after_classes", "mu_after_classes", "long_frame_after_classes"])
    def test_classes_named_before_the_specs_keys(self, doc, key):
        """The spec checks its own keys, list values among them, after the
        config classes."""
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        assert excinfo.value.key == key

    @pytest.mark.parametrize("fields, key", [
        (dict(snr_grid=(0.0, 0.0), n_seeds=1), "run.snr_grid"),
        (dict(kind="nope"), "experiment.kind"),
        (dict(kind="ber_awgn"), "run.snr_grid"),
        (dict(kind="step_sweep", snr_grid=(0.0,)), "run.sweep_values"),
        (dict(kind="ber_nonlinear", snr_grid=(0.0,)), "channel.profiles"),
    ], ids=["repeated_snr", "kind", "empty_snr", "empty_sweep_values", "empty_profiles"])
    def test_spec_built_directly_names_the_key(self, fields, key):
        """Values the parser never passes on: it rejects an empty list and
        fills in the lists the kind reads."""
        with pytest.raises(ConfigError) as excinfo:
            ExperimentSpec(**fields)
        assert excinfo.value.key == key
        assert str(excinfo.value).startswith(f"{key}: ")

    @pytest.mark.parametrize("kind, key, value, named", [
        ("ber_awgn", "frame.h", 5, "frame.h"),
        ("ber_awgn", "frame.h", 640_001, "frame.h"),
        ("ber_awgn", "ale.delay", 10_000, "frame.h"),
        ("ber_awgn", "lms.mu", -0.1, "lms.mu"),
        ("ber_awgn", "lms.mu", math.nan, "lms.mu"),
        ("ber_awgn", "lms.mu", math.inf, "lms.mu"),
        ("ber_awgn", "run.snr_grid", (0.0, -0.0), "run.snr_grid"),
        ("ber_awgn", "run.snr_grid", (0.0, math.nan), "run.snr_grid"),
        ("ber_awgn", "run.snr_grid", (-math.inf,), "run.snr_grid"),
        ("ber_awgn", "run.snr_grid", (4000.0,), "run.snr_grid"),
        ("ber_awgn", "run.snr_grid", (0.0, -4000.0), "run.snr_grid"),
        ("particle_sweep", "run.sweep_values", (2.7,), "run.sweep_values"),
        ("particle_sweep", "run.sweep_values", (0.0,), "run.sweep_values"),
        ("particle_sweep", "run.sweep_values", (10.0, MAX_PARTICLES + 1.0), "run.sweep_values"),
        ("step_sweep", "run.sweep_values", (0.0,), "run.sweep_values"),
        ("step_sweep", "run.sweep_values", (math.inf,), "run.sweep_values"),
        ("step_sweep", "run.sweep_values", (0.01, 0.01), "run.sweep_values"),
        ("ber_awgn", "run.n_seeds", 0, "run.n_seeds"),
        ("ber_nonlinear", "run.n_seeds", 3031, "run.n_seeds"),
        ("particle_sweep", "run.n_seeds", 556, "run.n_seeds"),
        ("ber_awgn", "run.base_seed", -1, "run.base_seed"),
        ("ber_awgn", "run.base_seed", 2**64, "run.base_seed"),
        ("ber_nonlinear", "channel.profiles", ("60MHz", "60MHz"), "channel.profiles"),
        ("ber_nonlinear", "channel.profiles", ("3.9GHz",), "channel.profiles"),
    ])
    def test_spec_rejects_what_the_parser_rejects_under_the_same_key(self, kind, key, value, named):
        """A frame too short for the filter is named frame.h, whichever key
        made it so; a value its config class rejects is named by its own key
        (see test_rejected_value_names_its_key)."""
        with pytest.raises(ConfigError) as parsed:
            parse_config(f"{key} = {bench._format_value(value)}", kind=kind)
        assert parsed.value.key == named
        spec = parse_config("", kind=kind)
        section, _, name = key.partition(".")
        if section in bench._SECTIONS:
            fields = {section: replace(getattr(spec, section), **{name: value})}
        else:
            fields = {name: value}
        with pytest.raises(ConfigError) as built:
            replace(spec, **fields)
        assert built.value.key == named

    def test_particle_sweep_raw_rows_capped(self):
        """6 default points x 60 iterations is 360 rows a seed, so 200,000
        rows allow 555 seeds; 556 are rejected (see the test above) unless
        fewer iterations are kept."""
        assert parse_config("run.n_seeds = 555", kind="particle_sweep").n_seeds == 555
        assert parse_config("run.n_seeds = 556\npso.max_iters = 55", kind="particle_sweep").n_seeds == 556

    def test_infinite_step_size_rejected(self):
        with pytest.raises(ConfigError, match="run.sweep_values"):
            parse_config("run.sweep_values = 0.01, inf", kind="step_sweep")

    @pytest.mark.parametrize("kind", ["ber_awgn", "ber_nonlinear"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_sweep_value_checked_by_kinds_that_ignore_it(self, kind, value):
        """A kind that reads no sweep value still checks it, as run-all
        applies one config to every kind."""
        with pytest.raises(ConfigError, match=f"run.sweep_values: sweep values must be finite and > 0, got {float(value)}"):
            parse_config(f"run.sweep_values = {value}", kind=kind)

    @pytest.mark.parametrize("kind", bench.KINDS)
    @pytest.mark.parametrize("profiles", ["3.9GHz", "60MHz, 3.9GHz", "none", "", " , "])
    def test_bad_profiles_rejected_for_every_kind(self, kind, profiles):
        with pytest.raises(ConfigError, match="channel.profiles"):
            parse_config(f"channel.profiles = {profiles}", kind=kind)
        with pytest.raises(ConfigError, match="channel.profiles"):
            parse_config("", kind=kind, overrides={"channel.profiles": profiles})


@pytest.mark.parametrize("cls, name, value", [
    (ModConfig, "m", 3),
    (ModConfig, "m", 32),
    (AleConfig, "taps", 0),
    (AleConfig, "taps", MAX_TAPS + 1),
    (AleConfig, "delay", 0),
    (PsoConfig, "n_particles", 0),
    (PsoConfig, "n_particles", MAX_PARTICLES + 1),
    (PsoConfig, "max_iters", 0),
    (PsoConfig, "max_iters", 10**10),
    (PsoConfig, "tol", math.nan),
    (PsoConfig, "tol", -1.0),
    (PsoConfig, "tol", -math.inf),
    (PsoConfig, "patience", 0),
    (PsoConfig, "patience", -1),
])
def test_config_class_names_its_field(cls, name, value):
    with pytest.raises(ConfigError) as excinfo:
        cls(**{name: value})
    assert excinfo.value.key == name
    assert str(excinfo.value) == f"{name}: {excinfo.value.reason}"


def test_caps_accept_their_bound():
    """Constructors and parsing only: nothing of this size is run."""
    assert AleConfig(taps=MAX_TAPS).taps == MAX_TAPS
    cfg = PsoConfig(n_particles=MAX_PARTICLES, max_iters=MAX_ITERS)
    assert (cfg.n_particles, cfg.max_iters) == (MAX_PARTICLES, MAX_ITERS)
    spec = parse_config(f"run.sweep_values = 1, {MAX_PARTICLES}", kind="particle_sweep")
    assert spec.sweep_values == (1.0, MAX_PARTICLES)


def test_config_class_checks_fields_in_declaration_order():
    with pytest.raises(ConfigError) as excinfo:
        PsoConfig(patience=0, tol=-1.0)
    assert excinfo.value.key == "tol"
    with pytest.raises(ConfigError) as excinfo:
        AleConfig(delay=0, taps=0)
    assert excinfo.value.key == "taps"


def _readme_rows(heading, column=1):
    """Names in backticks in one column of each row of a README section's
    table, a call's name without its arguments; a row may name several."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [tuple(re.findall(r"`([\w.]+)[`(]", row.split("|")[column])) for row in rows]


def _readme_cells(heading, column=1):
    return [name for row in _readme_rows(heading, column) for name in row]


def test_readme_key_table_matches_schema():
    assert _readme_cells("Configuration") == list(bench._SCHEMA)


def test_readme_command_table_lists_kinds():
    """One row per kind, its last column the keys the kind ignores."""
    assert _readme_cells("CLI") == list(bench.KINDS)
    assert _readme_rows("CLI", column=4) == [kind.ignores for kind in bench._KINDS.values()]


def test_readme_library_table_names_exist():
    """The "Library layout" table lists each alebench module once, and
    every name it gives as a module's contents is an attribute of one."""
    listed = _readme_cells("Library layout")
    assert sorted(listed) == sorted(f"alebench.{info.name}" for info in pkgutil.iter_modules(alebench.__path__))
    modules = [importlib.import_module(name) for name in listed]
    names = _readme_cells("Library layout", column=2)
    assert names
    assert [name for name in names if not any(hasattr(m, name) for m in modules)] == []


def test_every_config_field_has_one_key():
    """Each field of a section record, and each other field of the spec, is
    set by exactly one key: the key table lists every config value."""
    expected = [
        f"{section}.{f.name}" for section, cls in bench._SECTIONS.items() for f in dataclasses.fields(cls)
    ] + [f.name for f in dataclasses.fields(ExperimentSpec) if f.name not in bench._SECTIONS]
    keyed = [key if key.split(".")[0] in bench._SECTIONS else key.split(".")[1] for key in bench._SCHEMA]
    assert Counter(keyed) == Counter(expected)


def test_no_two_kinds_are_twins():
    """Two equal kind entries would be one experiment computed and written twice."""
    kinds = list(bench._KINDS.values())
    assert all(a != b for i, a in enumerate(kinds) for b in kinds[i + 1:])


# Exact *_meta.txt bytes: keys in schema order, floats as repr, lists
# joined by ", ", keys a kind ignores left out.
_META_HEAD = (
    "frame.h = 10000\n"
    "mod.m = 2\n"
    "ale.taps = 5\n"
    "ale.delay = 1\n"
)
_META_BODY = _META_HEAD + (
    "lms.mu = 0.01\n"
    "pso.n_particles = 60\n"
    "pso.max_iters = 60\n"
    "pso.tol = 0.0001\n"
    "pso.patience = 5\n"
)
_META_TAIL = "run.n_seeds = 10\nrun.base_seed = 12345\n"
_SNR_GRID = "run.snr_grid = -10.0, -8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0\n"

_DEFAULT_META = {
    "particle_sweep": _META_HEAD + (
        "pso.max_iters = 60\n"
        "run.snr_grid = -2.0\n"
        "run.sweep_values = 10.0, 20.0, 30.0, 40.0, 50.0, 60.0\n"
    ) + _META_TAIL,
    "step_sweep": _META_HEAD + "run.snr_grid = -2.0\n"
    "run.sweep_values = 0.005, 0.01, 0.02, 0.04, 0.08, 0.2\n" + _META_TAIL,
    "ber_awgn": _META_BODY + _SNR_GRID + _META_TAIL,
    "ber_nonlinear": _META_BODY + _SNR_GRID + _META_TAIL + "channel.profiles = 60MHz, 2.4GHz, 5.8GHz\n",
}

_EVERY_KEY = """
experiment.kind = step_sweep
frame.h = 4096
mod.m = 4
ale.taps = 3
ale.delay = 2
lms.mu = 0.02
pso.n_particles = 7
pso.max_iters = 9
pso.tol = 1e-3
pso.patience = 3
run.snr_grid = -3, 0.5, inf
run.sweep_values = 0.003, 5e-2
run.n_seeds = 3
run.base_seed = 0x10
channel.profiles = 5.8GHz, 60MHz
"""

_EVERY_KEY_HEAD = """# alebench 0.1.0
experiment.kind = {kind}
frame.h = 4096
mod.m = 4
ale.taps = 3
ale.delay = 2
lms.mu = 0.02
pso.n_particles = 7
pso.max_iters = 9
pso.tol = 0.001
pso.patience = 3
run.snr_grid = -3.0, 0.5, inf
"""
_EVERY_KEY_TAIL = "run.n_seeds = 3\nrun.base_seed = 16\n"


class TestMetaGolden:
    @pytest.mark.parametrize("kind", list(_DEFAULT_META))
    def test_defaults_per_kind(self, kind):
        expected = f"# alebench 0.1.0\nexperiment.kind = {kind}\n" + _DEFAULT_META[kind]
        assert spec_to_text(parse_config("", kind=kind)) == expected

    def test_every_key_set(self):
        assert spec_to_text(parse_config(_EVERY_KEY)) == (
            "# alebench 0.1.0\n"
            "experiment.kind = step_sweep\n"
            "frame.h = 4096\n"
            "mod.m = 4\n"
            "ale.taps = 3\n"
            "ale.delay = 2\n"
            "run.snr_grid = -3.0, 0.5, inf\n"
            "run.sweep_values = 0.003, 0.05\n"
            + _EVERY_KEY_TAIL
        )
        every_key = _EVERY_KEY.replace("kind = step_sweep", "kind = ber_nonlinear")
        assert spec_to_text(parse_config(every_key, kind="ber_nonlinear")) == (
            _EVERY_KEY_HEAD.format(kind="ber_nonlinear")
            + _EVERY_KEY_TAIL
            + "channel.profiles = 5.8GHz, 60MHz\n"
        )


# A valid value other than the default of each key some kind ignores.
_IGNORED_VALUES = {
    "lms.mu": "0.02",
    "pso.n_particles": "7",
    "pso.max_iters": "9",
    "pso.tol": "0.5",
    "pso.patience": "2",
    "run.sweep_values": "3",
    "channel.profiles": "5.8GHz",
}


@pytest.mark.parametrize("kind", bench.KINDS)
def test_keys_a_kind_ignores_change_no_output(kind, tmp_path):
    """Each key the kind declares it ignores, set to another valid value,
    leaves its raw, mean and meta bytes as they were."""
    base = {"frame.h": "300", "run.n_seeds": "2", "run.snr_grid": "-2, 2"}
    ignores = bench._KINDS[kind].ignores
    ignored = {key: _IGNORED_VALUES[key] for key in bench._SCHEMA if key.startswith(ignores)}
    assert all(any(key.startswith(prefix) for key in ignored) for prefix in ignores)
    for key, raw in ignored.items():
        assert parse_config("", kind=kind, overrides={key: raw}) != parse_config("", kind=kind)
    paths = [
        emit_csv(run_experiment(parse_config("", kind=kind, overrides=overrides)), tmp_path / name)
        for name, overrides in (("base", base), ("ignored", {**base, **ignored}))
    ]
    for path, again in zip(*paths):
        assert again.read_bytes() == path.read_bytes(), path.name
