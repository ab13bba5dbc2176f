"""alebench benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload nonlinear_compare --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload run is one in-process call of ``alebench.cli.main`` with
``--jobs 1`` on a config file generated from ``--seed`` (see workloads.py).
A session first runs the fixed reference config in a fresh interpreter,
which gives the peak RSS and is compared with the stored reference output.
It then repeats workload runs for ``--seconds`` seconds, rotating the base
seed per repetition, with set-up samples in fresh interpreters (one at a
time) between them, and gates every run's CSV (gate.py).  With
``--trace 1`` it instead alternates untraced and traced runs of one config
and reports per-layer self times and algorithm counts recorded by
spans.py.

A human-readable report goes to stdout, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Everything a session
writes stays under ``.perfbench_out/`` in the checkout, including a result
file with an environment record and, for traced sessions, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, here and in every fresh interpreter the benchmark starts
# (they inherit the environment).  Runs use --jobs 1, and on a 2-vCPU
# machine OpenBLAS's extra threads only compete with the main thread: they
# doubled the set-up time of some fresh interpreters and not of others.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import H, WORKLOADS, Workload, config_text, quality, sanity  # noqa: E402

DEFAULT_SEED = 0
REFERENCE_DIR = HERE / "reference"
SETUP_PER_RUN = 3
TRACE_MIN_PAIRS = 2
WARMUP_H = 300
CHILD_TIMEOUT_S = 90

END_TO_END = (
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mse_geomean", "power"),
)
# Reported for people, not bounded: fail_frac is 0 when all is well, raw
# times swing with the machine's speed, and the per-algorithm quality is
# undefined on workloads that skip an algorithm.
REPORT_ONLY = (
    ("fail_frac", "ratio"),
    ("raw_wall_s", "s"),
    ("raw_frames_per_s", "1/s"),
    ("raw_setup_s", "s"),
    ("probe_python_s", "s"),
    ("probe_numpy_s", "s"),
    ("probe_import_s", "s"),
    ("ber_lms", "ratio"),
    ("ber_pso", "ratio"),
    ("mse_lms", "power"),
    ("mse_pso", "power"),
)
PER_LAYER = (
    ("pso.cost_s", "s"),
    ("pso.cost_evals", "count"),
    ("pso.us_per_eval", "us"),
    ("pso.bookkeeping_s", "s"),
    ("pso.iters", "count"),
    ("pso.early_stops", "count"),
    ("pso.stall_frac", "ratio"),
    ("ale.filter_frame.calls", "count"),
    ("ale.self_s", "s"),
    ("ale.flops_computed", "flop"),
    ("ale.bytes_computed", "B"),
    ("lms.self_s", "s"),
    ("lms.samples_adapted", "count"),
    ("lms.us_per_sample", "us"),
    ("lms.diverged", "count"),
    ("lms.divergence_index", "sample"),
    ("signal.self_s", "s"),
    ("channel.self_s", "s"),
    ("metrics.self_s", "s"),
    ("bench.self_s", "s"),
    ("bench.emit_s", "s"),
    ("bench.csv_bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
# Self times of every layer; together they partition the traced wall time.
LAYER_SELF_TIMES = (
    "cli.self_s", "bench.self_s", "signal.self_s", "channel.self_s", "ale.self_s",
    "lms.self_s", "pso.bookkeeping_s", "pso.cost_s", "metrics.self_s",
)
# Counts are a deterministic function of the config; they must repeat exactly.
_EXACT_UNITS = {"count", "flop", "B", "sample", "ratio"}


class BenchError(Exception):
    """The benchmark cannot measure: no program, or a probe that crashed."""


def load_program():
    """Import alebench from this checkout's src/, never from elsewhere."""
    if not (SRC / "alebench" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'alebench'}")
    sys.path.insert(0, str(SRC))
    import alebench.cli

    if not Path(alebench.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"alebench imported from {alebench.cli.__file__}, not {SRC}")
    return alebench.cli


def rep_seed(seed: int, rep: int) -> int:
    """Base seed of repetition `rep`; a pure function of (--seed, rep)."""
    digest = hashlib.sha256(f"alebench-perf:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# Base seed of the config whose output is stored under reference/.
REFERENCE_SEED = rep_seed(DEFAULT_SEED, 0)


def env_record() -> dict:
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        numpy_info = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    except (ImportError, KeyError, TypeError):
        numpy_info = {"numpy": "unknown", "blas": "unknown"}
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        **numpy_info,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _git_commit() -> str:
    # Read .git directly: running git here could search above the checkout.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class RunResult:
    wall_s: float
    problems: list[str]
    rows: list[dict] = field(default_factory=list)
    cpu_s: float = 0.0


class Session:
    """Workload runs of one benchmark invocation and their gate outcomes."""

    def __init__(self, cli, workload: Workload, seed: int, h: int = H, reference: str | None = None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.h = h
        self.reference = reference
        self.work = OUT / "work" / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.first_hash: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def config(self, base_seed: int, h: int | None = None) -> Path:
        path = self.work / f"seed{base_seed}.cfg"
        path.write_text(config_text(self.workload, base_seed, h or self.h), encoding="utf-8")
        return path

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.workload.kind, "--config", str(config), "--out", str(out), "--jobs", "1"]

    def warm_up(self):
        """One tiny untimed run so lazy imports and first calls are paid."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                self.cli.main(self.argv(self.config(REFERENCE_SEED, WARMUP_H), self.work / "out"))
            except Exception:  # noqa: BLE001 - the timed runs record the same failure
                pass

    def run(self, rep: int, recorder: spans.SpanRecorder | None = None) -> RunResult:
        base_seed = rep_seed(self.seed, rep)
        config = self.config(base_seed)
        argv = self.argv(config, self.work / "out")
        err = io.StringIO()
        problems = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if recorder is None:
                    rc = self.cli.main(argv)
                else:
                    with recorder.span("main", "cli"):
                        rc = self.cli.main(argv)
            except Exception:  # a failed run is counted, the session goes on
                rc = None
                problems.append(traceback.format_exc(limit=3))
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if rc not in (0, None):
            problems.append(f"exit code {rc}: {err.getvalue().strip()}")
        rows = []
        if rc == 0:
            rows, found = self.check(base_seed, self.work / "out")
            problems += found
        return self.record(f"rep {rep}", RunResult(wall, problems, rows, cpu))

    def check(self, base_seed: int, out: Path, reference: str | None = None) -> tuple[list[dict], list[str]]:
        try:
            text = (out / f"{self.workload.kind}_raw.csv").read_text(encoding="utf-8")
        except OSError as err:
            return [], [f"no raw CSV: {err}"]
        problems = []
        digest = gate.csv_hash(text)
        first = self.first_hash.setdefault(base_seed, digest)
        if digest != first:
            problems.append(f"raw CSV hash for base seed {base_seed} differs from the session's first run")
        _, rows = gate.parse_csv(text)
        problems += sanity(self.workload, rows, self.h)
        if reference is not None:
            problems += gate.compare_to_reference(text, reference)
        return rows, problems

    def record(self, label: str, result: RunResult) -> RunResult:
        self.attempted += 1
        if result.problems:
            self.failures.append(f"{label}: " + "; ".join(result.problems))
        return result

    # ------------------------------------------------------------------
    # fresh-process probes

    def _child(self, *args: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"probe {args[0]} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def setup_pair(self) -> tuple[float, float]:
        """(set-up seconds, import-probe seconds), from back-to-back fresh interpreters."""
        setup = self._child("setup", str(self.config(REFERENCE_SEED)), self.workload.kind)["setup_s"]
        return setup, self._child("import_probe")["import_s"]

    def reference_run(self) -> float:
        """Peak RSS of the reference config, run in a fresh process.

        The config does not depend on --seed, so every session compares
        this run's CSV with the stored reference (at H = 10,000).
        """
        out = self.work / "rss_out"
        start = time.perf_counter()
        probe = self._child("run", str(self.config(REFERENCE_SEED)), self.workload.kind, str(out))
        wall = time.perf_counter() - start
        problems = [] if probe["rc"] == 0 else [f"exit code {probe['rc']}: {probe['error']}"]
        if probe["rc"] == 0:
            problems += self.check(REFERENCE_SEED, out, self.reference)[1]
        self.record("reference run", RunResult(wall, problems))
        return probe["peak_rss_mb"]


def load_reference(workload: Workload, h: int) -> str | None:
    path = REFERENCE_DIR / f"{workload.name}.csv"
    if h != H:
        return None
    if not path.is_file():
        raise BenchError(f"missing reference output {path}")
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# sessions


def _room_for(durations, deadline) -> bool:
    """True while one more interval of median length ends before the deadline."""
    typical = statistics.median(durations) if durations else 0.0
    return time.perf_counter() + typical <= deadline


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; returns (metrics, report-only values).

    Run times are rescaled by the interleaved speed probe (speed.py); the
    raw times are kept in the report-only values.  Set-up samples are taken
    between the timed runs, so they see the same phases of the machine.
    """
    wl = session.workload
    rss = session.reference_run()
    session.warm_up()
    probe = speed.SpeedProbe(wl.numpy_share)
    walls, cpu, setup, quality_rows, rounds = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < wl.quality_reps or _room_for(rounds, deadline):
        round_start = time.perf_counter()
        before = probe.slowdown()
        result = session.run(rep)
        after = probe.slowdown()
        walls.append((result.wall_s, result.wall_s * 2.0 / (before + after)))
        cpu.append(result.cpu_s)
        if rep < wl.quality_reps:
            quality_rows.append(result.rows)
        setup += [session.setup_pair() for _ in range(SETUP_PER_RUN)]
        rounds.append(time.perf_counter() - round_start)
        rep += 1
    frames = wl.points * wl.n_seeds
    raw_walls, scaled_walls = zip(*walls)
    metrics = {
        "wall_s": statistics.median(scaled_walls),
        "frames_per_s": statistics.median(frames / w for w in scaled_walls),
        "setup_s": speed.rescale_setup(setup),
        "peak_rss_mb": rss,
    }
    # A quality repetition that failed leaves the quality figures undefined;
    # its failure is already counted.
    q = quality(wl, [row for rows in quality_rows for row in rows]) if all(quality_rows) else {}
    if q:
        metrics["mse_geomean"] = q["mse_geomean"]
    extra = {k: q.get(k) for k in ("ber_lms", "ber_pso", "mse_lms", "mse_pso")}
    extra["fail_frac"] = len(session.failures) / session.attempted
    extra["raw_wall_s"] = statistics.median(raw_walls)
    extra["raw_frames_per_s"] = statistics.median(frames / w for w in raw_walls)
    extra["raw_setup_s"] = statistics.median(s for s, _ in setup)
    extra["probe_import_s"] = statistics.median(p for _, p in setup)
    for i, kernel in enumerate(("python", "numpy")):
        timed = [sample[i] for sample in probe.samples if sample[i] > 0.0]
        extra[f"probe_{kernel}_s"] = statistics.median(timed) if timed else None
    extra["raw_walls_s"] = list(raw_walls)
    extra["scaled_walls_s"] = list(scaled_walls)
    extra["cpu_s"] = cpu
    extra["probe_samples_s"] = probe.samples
    extra["setup_pairs_s"] = setup
    extra["timed_runs"] = len(walls)
    return metrics, extra


def layer_metrics(recorder: spans.SpanRecorder) -> dict:
    self_s, total = recorder.layer_times()
    c = recorder.counters
    return {
        "pso.cost_s": self_s["pso.cost"],
        "pso.cost_evals": c.cost_evals,
        "pso.us_per_eval": 1e6 * self_s["pso.cost"] / c.cost_evals if c.cost_evals else 0.0,
        "pso.bookkeeping_s": self_s["pso"],
        "pso.iters": c.pso_iters,
        "pso.early_stops": c.pso_early_stops,
        "pso.stall_frac": c.pso_stalls / c.pso_steps if c.pso_steps else 0.0,
        "ale.filter_frame.calls": c.filter_calls,
        "ale.self_s": self_s["ale"],
        "ale.flops_computed": c.flops,
        "ale.bytes_computed": c.bytes,
        "lms.self_s": self_s["lms"],
        "lms.samples_adapted": c.lms_samples,
        "lms.us_per_sample": 1e6 * self_s["lms"] / c.lms_samples if c.lms_samples else 0.0,
        "lms.diverged": c.lms_diverged,
        "lms.divergence_index": statistics.fmean(c.lms_divergence_index) if c.lms_divergence_index else 0.0,
        "signal.self_s": self_s["signal"],
        "channel.self_s": self_s["channel"],
        "metrics.self_s": self_s["metrics"],
        "bench.self_s": self_s["bench"],
        "bench.emit_s": total.get("emit_csv", 0.0),
        "bench.csv_bytes": c.csv_bytes,
        "cli.self_s": self_s["cli"],
        "trace.wall_s": recorder.root_seconds(),
    }


def measure_traced(session: Session, seconds: float, targets=spans.TARGETS) -> tuple[dict, dict]:
    """Per-layer metrics of rep 0, from traced runs alternated with untraced ones."""
    session.reference_run()
    session.warm_up()
    recorder = spans.SpanRecorder(targets)
    untraced, traced, pairs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(pairs) < TRACE_MIN_PAIRS or _room_for(pairs, deadline):
        pair_start = time.perf_counter()
        for tracing in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if not tracing:
                untraced.append(session.run(0).wall_s)
                continue
            recorder.reset()
            recorder.install()
            try:
                session.run(0, recorder)
            finally:
                recorder.uninstall()
            traced.append(layer_metrics(recorder))
            if len(traced) == 1:
                recorder.write(OUT / f"spans-{session.workload.name}-seed{session.seed}.csv")
        pairs.append(time.perf_counter() - pair_start)
    metrics = {}
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER[:-1]:
        values = [m[name] for m in traced]
        if units[name] in _EXACT_UNITS:
            if len(set(values)) != 1:
                session.failures.append(f"{name} differs between traced runs of one config: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    extra = {
        "traced_runs": len(traced),
        "untraced_runs": len(untraced),
        "untraced_wall_s": statistics.median(untraced),
        # largest gap between a traced run's wall time and its summed self times
        "self_time_gap_s": max(abs(sum(m[k] for k in LAYER_SELF_TIMES) - m["trace.wall_s"]) for m in traced),
        "absent": recorder.absent,
    }
    return metrics, extra


def run_session(cli, workload: Workload, seed: int, seconds: float, trace: bool,
                h: int = H) -> tuple[list[str], dict, dict]:
    """One benchmark invocation: (report lines, result line, result file payload)."""
    session = Session(cli, workload, seed, h, load_reference(workload, h))
    env = env_record()
    if trace:
        metrics, extra = measure_traced(session, seconds)
        units = PER_LAYER
    else:
        metrics, extra = measure(session, seconds)
        units = END_TO_END
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units if name in metrics},
    }
    lines = [f"workload {workload.name}  seed {seed}  trace {int(trace)}  H {h}"]
    lines += [f"  {name} = {metrics[name]!r} {unit}" if name in metrics
              else f"  {name} = n/a {unit} (a quality repetition failed)" for name, unit in units]
    if not trace:
        for name, unit in REPORT_ONLY:
            value = extra[name]
            lines.append(f"  {name} = {value!r} {unit}" if value is not None
                         else f"  {name} = n/a {unit} (not measured)")
        lines.append(f"  samples: {extra['timed_runs']} timed runs, {len(extra['setup_pairs_s'])} set-up samples")
    else:
        lines.append(f"  traced {extra['traced_runs']} / untraced {extra['untraced_runs']} runs;"
                     f" layer self times sum to the traced wall time within {extra['self_time_gap_s']:.3g} s")
        lines.append(f"  absent names: {', '.join(extra['absent']) or 'none'}")
    lines.append(f"  runs attempted {session.attempted}, failed {len(session.failures)}")
    lines += [f"  FAILED {f}" for f in session.failures]
    lines.append("  env " + json.dumps(env, sort_keys=True))
    payload = {"workload": workload.name, "seed": seed, "trace": int(trace), "h": h,
               "result": result, "extra": extra, "failures": session.failures, "env": env}
    return lines, result, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            lines, result, payload = run_session(cli, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
