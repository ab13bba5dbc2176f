"""Experiment runner: deterministic sweeps over SNR, step size, swarm size.

Four experiment kinds are supported, each runnable as its own CLI
command:

* ``particle_sweep``   global-best cost per iteration for several swarm sizes
* ``step_sweep``       LMS residual power across a step-size grid
* ``ber_awgn``         LMS versus PSO BER and residual power, white noise only
* ``ber_nonlinear``    the same comparison under the named distortion profiles

Every run is a pure function of the resolved spec and the base seed.  The
seed of run (sweep_idx, seed_idx) is derived as
``SeedSequence(base_seed, spawn_key=(sweep_idx, seed_idx))`` collapsed to a
64-bit value, and that value is what appears in the ``seed`` column, so any
row can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .ale import AleConfig, _residual
from .channel import DEFAULT_PROFILES, SNR_LIMIT_DB, add_awgn, apply_nonlinear
from .errors import ConfigError
from .lms import lms_batch
from .pso import MAX_PARTICLES, PsoConfig, pso_batch
from .signal import ModConfig, demodulate, generate_bits, modulate

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "ResultTable",
    "parse_config",
    "spec_to_text",
    "run_experiment",
    "emit_csv",
    "derive_run_seed",
]

DEFAULT_BASE_SEED = 12345

@dataclass(frozen=True)
class ExperimentSpec:
    """Fully-resolved description of one experiment."""

    kind: str = "ber_awgn"
    h: int = 10_000
    mod: ModConfig = field(default_factory=ModConfig)
    ale: AleConfig = field(default_factory=AleConfig)
    mu: float = 0.01  # LMS step size
    pso: PsoConfig = field(default_factory=PsoConfig)
    snr_grid: tuple[float, ...] = ()
    sweep_values: tuple[float, ...] = ()
    n_seeds: int = 10
    base_seed: int = DEFAULT_BASE_SEED
    profiles: tuple[str, ...] = ()

    def __post_init__(self):
        """Reject a value under its config key, the first in schema order."""
        if self.kind not in _KINDS:
            raise ConfigError("experiment.kind", f"must be one of {', '.join(KINDS)}")
        shortest = self.ale.taps + self.ale.delay + 1
        if not shortest <= self.h <= _BATCH_SAMPLES:
            raise ConfigError("frame.h", f"must be from taps + delay + 1 = {shortest} to {_BATCH_SAMPLES}, got {self.h}")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigError("lms.mu", f"must be finite and >= 0, got {self.mu}")
        for s in self.snr_grid:
            if not (abs(s) <= SNR_LIMIT_DB or s == math.inf):  # +inf: no noise
                raise ConfigError("run.snr_grid", f"SNR values must be inf or within +-{SNR_LIMIT_DB:g} dB, got {s}")
        _check_list("run.snr_grid", self.snr_grid, self.kind)
        _check_list("run.sweep_values", self.sweep_values, self.kind)
        for v in self.sweep_values:
            if self.kind == "particle_sweep" and not (math.isfinite(v) and v == int(v) and 1 <= v <= MAX_PARTICLES):
                raise ConfigError("run.sweep_values", f"particle counts must be integers from 1 to {MAX_PARTICLES}, got {v}")
            if not (v > 0 and math.isfinite(v)):  # checked for every kind, as run-all sets one for all
                raise ConfigError("run.sweep_values", f"sweep values must be finite and > 0, got {v}")
        if self.n_seeds < 1:
            raise ConfigError("run.n_seeds", f"must be >= 1, got {self.n_seeds}")
        runs = len(_sweep_points(self)) * self.n_seeds
        if runs > _MAX_RUNS:
            raise ConfigError("run.n_seeds", f"sweep points x seeds must be at most {_MAX_RUNS} runs")
        if self.kind == "particle_sweep" and runs * self.pso.max_iters > _MAX_ROWS:
            raise ConfigError("run.n_seeds", f"sweep points x seeds x pso.max_iters must be at most {_MAX_ROWS} rows")
        if not (0 <= self.base_seed < 2**64):
            raise ConfigError("run.base_seed", f"must be an unsigned 64-bit value, got {self.base_seed}")
        _check_list("channel.profiles", self.profiles, self.kind)
        for name in self.profiles:
            if name not in DEFAULT_PROFILES:
                known = ", ".join(DEFAULT_PROFILES)
                raise ConfigError("channel.profiles", f"unknown profile {name!r}, expected one of {known}")


def _check_list(key: str, values: tuple, kind: str) -> None:
    """A kind runs no point without a value of each list it reads; a repeat
    would merge two sweep points into one mean row."""
    if not (values or key.startswith(_KINDS[kind].ignores)):
        raise ConfigError(key, f"must not be empty for {kind}")
    if len(set(values)) != len(values):
        raise ConfigError(key, "values must be distinct")


@dataclass(frozen=True)
class ResultTable:
    """Raw per-seed rows plus seed-averaged rows and the resolved config."""

    kind: str
    raw_columns: tuple[str, ...]
    raw_rows: tuple[dict, ...]
    mean_columns: tuple[str, ...]
    mean_rows: tuple[dict, ...]
    metadata: str


# ---------------------------------------------------------------------------
# configuration parsing

def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as err:
        raise ValueError(f"expected an integer, got {text!r}") from err


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ValueError(f"expected a number, got {text!r}") from err


def _list_of(parse_item: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of comma-separated values, each parsed by `parse_item`."""
    def parse(text: str) -> tuple:
        items = tuple(parse_item(part.strip()) for part in text.split(",") if part.strip())
        if not items:
            raise ValueError("expected a non-empty comma-separated list")
        return items
    return parse


def _parse_kind(text: str) -> str:
    if text not in _KINDS:
        raise ValueError(f"must be one of {', '.join(KINDS)}")
    return text


# The only list of config keys.  Key ``section.name`` sets field ``name`` of
# the sub-config in _SECTIONS, or of the spec itself for any other section;
# spec_to_text echoes the keys in this order.
_SCHEMA = {
    "experiment.kind": _parse_kind,
    "frame.h": _parse_int,
    "mod.m": _parse_int,
    "ale.taps": _parse_int,
    "ale.delay": _parse_int,
    "lms.mu": _parse_float,
    "pso.n_particles": _parse_int,
    "pso.max_iters": _parse_int,
    "pso.tol": _parse_float,
    "pso.patience": _parse_int,
    "run.snr_grid": _list_of(_parse_float),
    "run.sweep_values": _list_of(_parse_float),
    "run.n_seeds": _parse_int,
    "run.base_seed": _parse_int,
    "channel.profiles": _list_of(str),
}

_SECTIONS = {"mod": ModConfig, "ale": AleConfig, "pso": PsoConfig}


def _parse_value(key: str, raw: str):
    if key not in _SCHEMA:
        raise ConfigError(key, "unknown key")
    try:
        return _SCHEMA[key](raw)
    except ValueError as err:
        raise ConfigError(key, str(err)) from err


def _parse_pairs(text: str) -> dict:
    """Strict key = value lines; unknown keys and malformed lines reject."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not (equals and key):
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = _parse_value(key, value)
    return values


def parse_config(
    text: str, kind: str | None = None, overrides: dict[str, str] | None = None
) -> ExperimentSpec:
    """Build a resolved spec from a flat dotted-key document.

    Missing keys take the benchmark defaults (H=10,000 BPSK samples, a
    5-tap enhancer with delay 1, mu=0.01, 60 particles, the kind's grids).
    Unknown keys and type mismatches raise ConfigError naming the key; so
    does a value out of range, whether or not the kind reads it, rejected
    by the config class that holds it or by the spec.  `overrides` maps
    keys to raw value strings that replace whatever the document says.
    `kind` is the kind to run: an ``experiment.kind`` in the document or
    in `overrides` that names another kind is rejected, and one that
    names the same kind is accepted, so a meta file parses back under
    its own kind.
    """
    values = _parse_pairs(text)
    document_kind = values.get("experiment.kind")
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw)
    if kind:
        for named in (document_kind, values.get("experiment.kind")):
            if named not in (None, kind):
                raise ConfigError("experiment.kind", f"names {named}, but the kind to run is {kind}")
        values["experiment.kind"] = _parse_value("experiment.kind", kind)
    kind = values.setdefault("experiment.kind", ExperimentSpec.kind)
    values = {**_KINDS[kind].defaults, **values}

    fields: dict = {}
    sections: dict = {section: {} for section in _SECTIONS}
    for key, value in values.items():
        section, _, name = key.partition(".")
        sections.get(section, fields)[name] = value
    for section, cls in _SECTIONS.items():
        try:
            fields[section] = cls(**sections[section])
        except ConfigError as err:
            raise ConfigError(f"{section}.{err.key}", err.reason) from err
    return ExperimentSpec(**fields)


def _format_value(value) -> str:
    """Meta-file text of one value: lists joined by ", "."""
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def spec_to_text(spec: ExperimentSpec) -> str:
    """Echo a spec as config text, leaving out the keys its kind ignores;
    it parses back into an experiment that writes the same CSV bytes."""
    lines = [f"# alebench {__version__}"]
    ignores = _KINDS[spec.kind].ignores
    for key in _SCHEMA:
        section, _, name = key.partition(".")
        value = getattr(getattr(spec, section) if section in _SECTIONS else spec, name)
        if not key.startswith(ignores):
            lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeds

def derive_run_seed(base_seed: int, *spawn_key: int) -> int:
    """64-bit seed of the stream `spawn_key` under `base_seed`: run (sweep_idx,
    seed_idx) of an experiment, independent of n_seeds, or subsystem k of a run."""
    ss = np.random.SeedSequence(base_seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# per-run pipeline

def _sweep_points(spec: ExperimentSpec) -> list[dict]:
    """Flattened sweep axis, each point keyed by its row columns; list
    position is the seed-derivation index."""
    axis = _KINDS[spec.kind].axis
    if axis is None:
        return [{"snr_db": snr} for snr in spec.snr_grid]
    column, name = axis
    return [{column: value, "snr_db": snr} for value in getattr(spec, name) for snr in spec.snr_grid]


def _batch_frames(spec: ExperimentSpec, runs: list[tuple[int, int]]):
    """One lane per run: its row base (sweep point, ``seed``, ``L``,
    ``delta``), its PSO seed, the (B, H * bits per symbol) bits it sent and
    the (B, H) received samples.  Each profile distorts its lanes in one
    call, so its tones are computed once per batch; each lane's noise is
    calibrated to its own distorted frame and drawn from its own seed."""
    points = _sweep_points(spec)
    bases, pso_seeds, chan_seeds = [], [], []
    bits = np.empty((len(runs), spec.h * spec.mod.bits_per_symbol), dtype=np.uint8)
    frames = np.empty((len(runs), spec.h), dtype=np.complex128)
    for lane, (sweep_idx, seed_idx) in enumerate(runs):
        run_seed = derive_run_seed(spec.base_seed, sweep_idx, seed_idx)
        bits_seed, chan_seed, pso_seed = (derive_run_seed(run_seed, k) for k in range(3))
        bits[lane] = generate_bits(bits.shape[1], bits_seed)
        frames[lane] = modulate(bits[lane], spec.mod)
        bases.append(dict(points[sweep_idx], seed=run_seed, L=spec.ale.taps, delta=spec.ale.delay))
        pso_seeds.append(pso_seed)
        chan_seeds.append(chan_seed)
    # runs come in sweep order, profile outermost, so a profile's lanes are one slice
    first = 0
    for name, group in groupby(base.get("profile") for base in bases):
        last = first + len(list(group))
        if name is not None:
            frames[first:last] = apply_nonlinear(frames[first:last], DEFAULT_PROFILES[name])
        first = last
    for lane, (base, chan_seed) in enumerate(zip(bases, chan_seeds)):
        frames[lane] = add_awgn(frames[lane], base["snr_db"], chan_seed)
    return bases, pso_seeds, bits, frames


def _power(x: np.ndarray, crossed: bool) -> float:
    """Mean |x|^2, or inf on a lane whose LMS weights crossed WEIGHT_BOUND,
    in every kind: not the power of the frame its reset weights leave."""
    return math.inf if crossed else float(np.mean(np.abs(x) ** 2))


def _metric_row(spec: ExperimentSpec, base: dict, algorithm: str, residual: np.ndarray, sent, crossed: bool) -> dict:
    """The row of one algorithm's residual of a run, from sample `warmup`
    on: bits are decided on it, and `mse` is its power.  A power that
    overflows is inf, as are a crossed LMS lane's (_power); a residual that
    overflows fails the run."""
    if not np.isfinite(residual).all():
        raise RuntimeError(f"{spec.kind} failed at run seed {base['seed']}: {algorithm} residual is not finite")
    errors = int(np.count_nonzero(demodulate(residual, spec.mod) != sent))
    clean = modulate(sent, spec.mod)  # re-modulated per row: ~60 us a BPSK lane, against one more (B, H) array per batch
    return dict(
        base,
        algorithm=algorithm,
        ber=errors / sent.size,
        mse=_power(residual, crossed),
        mu=spec.mu if algorithm == "LMS" else None,
        n_particles=None if algorithm == "LMS" else spec.pso.n_particles,
        clean_mse=_power(residual - clean, crossed),
        compared_bits=sent.size,
    )


@dataclass(frozen=True)
class _Kind:
    """Everything that sets one experiment kind apart.

    `defaults` holds the kind's values of the keys whose meaning depends
    on the kind.  `ignores` are the keys, or key prefixes, the kind never
    reads: their values are still checked, because ``run-all`` applies one
    config to every kind, but they stay out of that kind's meta file.
    `axis` is the row column swept outside the SNR grid and the spec field
    its values come from, or None.  `raw` and `mean` are the CSV columns.
    `averaged` are the mean columns averaged over seeds; the other mean
    columns but ``n_seeds`` group rows.

    The rest is what _run_batch runs, given the runs' bases (_batch_frames):
    `swarm(spec, bases)`, the config and the lanes' particle counts of the
    search, and `mus(spec, bases)`, the lanes' LMS step sizes; a kind
    without one skips that stage.  `searched(spec, base, sent, d, w,
    history)` forms a run's rows from its intact frame and the swarm's best
    weights and costs, and `adapted(spec, base, sent, e, crossed)` from its
    LMS residual and crossing; `sent` and `e` start at sample warmup.
    """

    defaults: dict
    ignores: tuple[str, ...]
    axis: tuple[str, str] | None
    raw: tuple[str, ...]
    mean: tuple[str, ...]
    averaged: tuple[str, ...]
    swarm: Callable[[ExperimentSpec, list[dict]], tuple[PsoConfig, list[int]]] | None = None
    searched: Callable[..., list[dict]] | None = None
    mus: Callable[[ExperimentSpec, list[dict]], list[float]] | None = None
    adapted: Callable[..., list[dict]] | None = None


_SNR_GRID = tuple(float(s) for s in range(-10, 11, 2))

_METRIC_RAW = (
    "snr_db", "algorithm", "seed", "ber", "mse", "mu", "n_particles",
    "L", "delta", "clean_mse", "compared_bits",
)
_METRIC_MEAN = (
    "snr_db", "algorithm", "ber", "mse", "clean_mse", "n_seeds", "mu",
    "n_particles", "L", "delta",
)
_METRIC_AVERAGED = ("ber", "mse", "clean_mse")
_METRIC_STAGES = dict(
    swarm=lambda spec, bases: (spec.pso, [spec.pso.n_particles] * len(bases)),
    searched=lambda spec, base, sent, d, w, history: [_metric_row(spec, base, "PSO", _residual(d, w, spec.ale), sent, False)],
    mus=lambda spec, bases: [spec.mu] * len(bases),
    adapted=lambda spec, base, sent, e, crossed: [_metric_row(spec, base, "LMS", e, sent, crossed)],
)

_KINDS = {
    "particle_sweep": _Kind(
        defaults={"run.snr_grid": (-2.0,), "run.sweep_values": (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)},
        ignores=("lms.mu", "pso.n_particles", "pso.tol", "pso.patience", "channel.profiles"),
        axis=("n_particles", "sweep_values"),
        raw=("snr_db", "algorithm", "seed", "n_particles", "iteration", "gbest_cost", "L", "delta"),
        mean=("snr_db", "algorithm", "n_particles", "iteration", "gbest_cost", "n_seeds", "L", "delta"),
        averaged=("gbest_cost",),
        # the sweep value is a whole float; the row and the swarm take an int.
        # Full-length histories: early stopping is disabled for this sweep.
        swarm=lambda spec, bases: (replace(spec.pso, tol=0.0), [int(base["n_particles"]) for base in bases]),
        searched=lambda spec, base, sent, d, w, history: [
            dict(run, iteration=it + 1, gbest_cost=cost)
            for run in [dict(base, algorithm="PSO", n_particles=int(base["n_particles"]))]
            for it, cost in enumerate(history)
        ],
    ),
    "step_sweep": _Kind(
        defaults={"run.snr_grid": (-2.0,), "run.sweep_values": (0.005, 0.01, 0.02, 0.04, 0.08, 0.2)},
        ignores=("lms.mu", "pso.", "channel.profiles"),
        axis=("mu", "sweep_values"),
        raw=("snr_db", "algorithm", "seed", "mu", "mse", "L", "delta"),
        mean=("snr_db", "algorithm", "mu", "mse", "n_seeds", "L", "delta"),
        averaged=("mse",),
        mus=lambda spec, bases: [base["mu"] for base in bases],
        adapted=lambda spec, base, sent, e, crossed: [dict(base, algorithm="LMS", mse=_power(e, crossed))],
    ),
    "ber_awgn": _Kind(
        defaults={"run.snr_grid": _SNR_GRID},
        ignores=("run.sweep_values", "channel.profiles"),
        axis=None,
        raw=_METRIC_RAW,
        mean=_METRIC_MEAN,
        averaged=_METRIC_AVERAGED,
        **_METRIC_STAGES,
    ),
    "ber_nonlinear": _Kind(
        defaults={"run.snr_grid": _SNR_GRID, "channel.profiles": ("60MHz", "2.4GHz", "5.8GHz")},
        ignores=("run.sweep_values",),
        axis=("profile", "profiles"),
        raw=_METRIC_RAW + ("profile",),
        mean=_METRIC_MEAN + ("profile",),
        averaged=_METRIC_AVERAGED,
        **_METRIC_STAGES,
    ),
}

KINDS = tuple(_KINDS)

# Frame samples one batch of runs may hold.  A complex frame sample costs 16
# bytes, ~10 MB at this size, and while LMS runs that is all it costs, in
# every kind: the swarm searches the frames first, and LMS writes each
# residual over its frame sample.  Distorting a profile's lanes holds 24
# bytes more per sample of them (the distorted copy and |x|^2), so a batch
# under one profile peaks at 40 bytes per sample, ~26 MB, while it
# distorts, before any residual.  The LMS kernel's per-sample call overhead
# is shared by the whole batch, so fewer, larger batches are faster: 64
# frames of 10,000 fit, and a default ber_awgn sweep (110 frames) runs as
# two batches.
_BATCH_SAMPLES = 640_000
# Frames one batch may hold, those of a full batch at the default frame.h:
# the swarm and LMS buffers cost ~50 KB per frame, however short it is.
_BATCH_LANES = 64
# Runs one experiment may hold: every run is listed and its raw rows kept
# until written.  300 times the largest default sweep (ber_nonlinear, 330).
_MAX_RUNS = 100_000
# Raw rows one experiment may keep, those of _MAX_RUNS metric runs; a
# particle_sweep run keeps pso.max_iters rows.
_MAX_ROWS = 2 * _MAX_RUNS


def _split(runs: list, count: int) -> list[list]:
    """`runs` cut into `count` contiguous batches whose sizes differ by at most one."""
    edges = [len(runs) * i // count for i in range(count + 1)]
    return [runs[a:b] for a, b in zip(edges, edges[1:])]


@np.errstate(over="ignore")
def _run_batch(args: tuple) -> list[dict]:
    """A batch's rows, runs in order, each run's LMS rows before its PSO
    rows, by its kind's stages (_Kind): the swarm searches the frames and
    its rows read them intact; LMS then writes its residuals over them."""
    spec, runs = args
    kind, start = _KINDS[spec.kind], spec.ale.warmup
    bases, pso_seeds, bits, frames = _batch_frames(spec, runs)
    sent = bits[:, spec.mod.bits_per_symbol * start :]
    searched = adapted = [[]] * len(runs)
    if kind.swarm:
        cfg, counts = kind.swarm(spec, bases)
        weights, histories = pso_batch(frames, pso_seeds, cfg, spec.ale, counts)
        searched = [kind.searched(spec, *lane) for lane in zip(bases, sent, frames, weights, histories)]
    if kind.mus:
        _, diverged_at, _ = lms_batch(frames, kind.mus(spec, bases), spec.ale)
        adapted = [kind.adapted(spec, b, s, e[start:], n >= 0) for b, s, e, n in zip(bases, sent, frames, diverged_at)]
    return [row for lms_rows, pso_rows in zip(adapted, searched) for row in lms_rows + pso_rows]


# ---------------------------------------------------------------------------
# tables

def _cells(columns: tuple[str, ...]) -> Callable[[dict], tuple]:
    """A row's values in `columns` order, as a tuple; a missing column raises
    KeyError.  itemgetter takes at least one key, and returns one bare."""
    return itemgetter(*columns) if len(columns) > 1 else lambda row: tuple(row[c] for c in columns)


def _mean_rows(raw_rows: list[dict], kind: _Kind) -> list[dict]:
    """One row per group of raw rows with equal key columns, in order of
    first appearance, each averaged column the mean of its group's values
    in raw-row order.  Every group holds one row per seed, so the groups
    are the rows of one (groups, n_seeds) index array, averaged in one call."""
    key_columns = tuple(c for c in kind.mean if c not in kind.averaged and c != "n_seeds")
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(_cells(key_columns), raw_rows)):
        groups.setdefault(key, []).append(i)
    members = np.array(list(groups.values()))
    out = [dict(zip(key_columns, key), n_seeds=members.shape[1]) for key in groups]
    for col in kind.averaged:
        values = np.array([row[col] for row in raw_rows], dtype=np.float64)
        for row, mean in zip(out, values[members].mean(axis=1).tolist()):
            row[col] = mean
    return out


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Run every (sweep point, seed) run and assemble the result table.

    Runs are independent.  They are cut into contiguous batches of at most
    _BATCH_SAMPLES frame samples and _BATCH_LANES frames, and at least one
    batch per worker; the LMS of a batch adapts all its frames at once.
    With ``jobs > 1`` the batches execute in a process pool of at most
    ``min(jobs, runs, CPUs this process may run on)`` workers.  Rows are
    merged in (sweep index, seed index) order, and every run's numbers are
    the same in any batch, so output bytes never depend on the parallelism
    level or on the batch size.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    points = _sweep_points(spec)
    runs = [
        (sweep_idx, seed_idx)
        for sweep_idx in range(len(points))
        for seed_idx in range(spec.n_seeds)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(runs), cpus)
    batches = max(math.ceil(len(runs) * spec.h / _BATCH_SAMPLES), math.ceil(len(runs) / _BATCH_LANES))
    count = min(len(runs), max(batches, workers))
    tasks = [(spec, batch) for batch in _split(runs, count)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~10 ms to import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_batch, tasks))
    else:
        chunks = [_run_batch(task) for task in tasks]
    raw_rows = [row for chunk in chunks for row in chunk]
    kind = _KINDS[spec.kind]
    return ResultTable(
        kind=spec.kind,
        raw_columns=kind.raw,
        raw_rows=tuple(raw_rows),
        mean_columns=kind.mean,
        mean_rows=tuple(_mean_rows(raw_rows, kind)),
        metadata=spec_to_text(spec),
    )


def _csv_text(columns: tuple[str, ...], rows: tuple[dict, ...]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *map(_cells(columns), rows)])
    return buf.getvalue()


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def emit_csv(table: ResultTable, out_dir: str | Path) -> list[Path]:
    """Write ``<kind>_raw.csv``, ``<kind>_mean.csv`` and ``<kind>_meta.txt``.

    A row missing a column of its table raises KeyError.  Cells are the csv
    module's own text: empty for None, floats (numpy's too) in shortest
    round-trip form, anything else by ``str``, so a numpy scalar prints as
    a number; re-emitting the same table produces identical bytes.  All
    three go to temporary files in `out_dir` first, renamed over the old set
    only once every write has succeeded, so a failure leaves it intact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        out / f"{table.kind}_raw.csv": _csv_text(table.raw_columns, table.raw_rows),
        out / f"{table.kind}_mean.csv": _csv_text(table.mean_columns, table.mean_rows),
        out / f"{table.kind}_meta.txt": table.metadata,
    }
    temps = {}
    try:
        for path, text in files.items():
            temps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            _write_text(temps[path], text)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    return list(files)
