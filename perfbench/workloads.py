"""The benchmark's workloads: generated configs, sanity checks, quality.

Every workload runs at the paper's default operating point: H = 10,000
BPSK samples, a 5-tap enhancer with delay 1.  One workload run is one call
of ``alebench.cli.main`` on a generated config file; the program sees only
that file, whose ``run.base_seed`` the benchmark derives from ``--seed`` and
the repetition index.

nonlinear_compare
    ``ber_nonlinear`` over all three distortion profiles at -10, 0 and
    10 dB, 60 particles, early stopping on.  The paper's LMS-versus-PSO
    comparison; it runs every layer, apply_nonlinear included.  PSO
    iterations depend on the frame (10-45 measured), so one run covers
    nine frames and a session rotates seeds across repetitions.
step_lms
    ``step_sweep`` at -2 dB over the six default step sizes plus 0.3, which
    lies past the stability bound and diverges within a few hundred
    samples.  LMS only: an LMS change shows here, a PSO change must not.
swarm_pso
    ``particle_sweep`` at -2 dB over 10..60 particles with ``tol = 0``, so
    every search runs all 60 iterations.  PSO only, swarm bookkeeping grows
    with N, and each search emits 60 CSV rows, so CSV output is heaviest.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

H = 10_000
PROFILES = ("60MHz", "2.4GHz", "5.8GHz")
STEP_VALUES = (0.005, 0.01, 0.02, 0.04, 0.08, 0.2, 0.3)
UNSTABLE_STEP = 0.3
CONVERGING_STEP = 0.08  # every step size up to this one converges
PARTICLE_VALUES = (10, 20, 30, 40, 50, 60)
PSO_ITERS = 60


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    keys: tuple[tuple[str, str], ...]
    n_seeds: int
    points: int  # sweep points; a run makes points * n_seeds frames
    # Share of run time in convolution-bound work: pso.cost_s over
    # trace.wall_s in a --trace 1 run at --seed 0.  It weights the speed
    # probe's two kernels (speed.py).
    numpy_share: float
    # Quality is computed over this many repetitions, always run whatever
    # --seconds says, so it is a deterministic function of --seed.
    quality_reps: int


_OPERATING_POINT = (
    ("mod.m", "2"),
    ("ale.taps", "5"),
    ("ale.delay", "1"),
    ("lms.mu", "0.01"),
    ("pso.n_particles", "60"),
    ("pso.max_iters", str(PSO_ITERS)),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nonlinear_compare",
            kind="ber_nonlinear",
            keys=(
                ("run.snr_grid", "-10, 0, 10"),
                ("channel.profiles", ", ".join(PROFILES)),
                ("pso.tol", "0.0001"),
                ("pso.patience", "5"),
            ),
            n_seeds=1,
            points=3 * len(PROFILES),
            numpy_share=0.79,
            quality_reps=3,
        ),
        Workload(
            name="step_lms",
            kind="step_sweep",
            keys=(
                ("run.snr_grid", "-2"),
                ("run.sweep_values", ", ".join(repr(v) for v in STEP_VALUES)),
            ),
            n_seeds=2,
            points=len(STEP_VALUES),
            numpy_share=0.0,
            quality_reps=3,
        ),
        Workload(
            name="swarm_pso",
            kind="particle_sweep",
            keys=(
                ("run.snr_grid", "-2"),
                ("run.sweep_values", ", ".join(str(v) for v in PARTICLE_VALUES)),
                ("pso.tol", "0"),
            ),
            n_seeds=1,
            points=len(PARTICLE_VALUES),
            numpy_share=0.97,
            quality_reps=3,
        ),
    )
}


def config_text(workload: Workload, base_seed: int, h: int = H) -> str:
    lines = [f"experiment.kind = {workload.kind}", f"frame.h = {h}"]
    lines += [f"{key} = {value}" for key, value in _OPERATING_POINT + workload.keys]
    lines += [f"run.n_seeds = {workload.n_seeds}", f"run.base_seed = {base_seed}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sanity: checks that hold at any seed


def _float(row, column):
    return float(row[column])


def sanity(workload: Workload, rows: list[dict], h: int = H) -> list[str]:
    try:
        return _SANITY[workload.name](workload, rows, h)
    except (KeyError, ValueError) as err:
        return [f"unreadable row: {err!r}"]


def _sanity_nonlinear(workload, rows, h):
    problems = []
    expected = 2 * workload.points * workload.n_seeds
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        ber, mse = _float(row, "ber"), _float(row, "mse")
        if row["algorithm"] not in ("LMS", "PSO") or row["profile"] not in PROFILES:
            problems.append(f"unexpected row labels {row['algorithm']}/{row['profile']}")
        if not 0.0 <= ber <= 1.0:
            problems.append(f"ber {ber} outside [0, 1]")
        if not (math.isfinite(mse) and mse > 0.0):
            problems.append(f"mse {mse} not finite and positive")
        if int(row["compared_bits"]) != h - 5:
            problems.append(f"compared_bits {row['compared_bits']} != {h - 5}")
    return problems


def _sanity_step(workload, rows, h):
    problems = []
    expected = len(STEP_VALUES) * workload.n_seeds
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        mu, mse = _float(row, "mu"), _float(row, "mse")
        if mu == UNSTABLE_STEP and mse != math.inf:
            problems.append(f"mu={mu} should diverge, got mse {mse}")
        elif mu <= CONVERGING_STEP and not (math.isfinite(mse) and mse > 0.0):
            problems.append(f"mu={mu} should converge, got mse {mse}")
        elif not mse > 0.0:
            problems.append(f"mse {mse} not positive")
    return problems


def _sanity_swarm(workload, rows, h):
    problems = []
    expected = len(PARTICLE_VALUES) * workload.n_seeds * PSO_ITERS
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for run in _swarm_runs(rows).values():
        costs = [cost for _, cost in sorted(run)]
        if [it for it, _ in sorted(run)] != list(range(1, PSO_ITERS + 1)):
            problems.append("iterations are not 1..max_iters")
        if not all(math.isfinite(c) and c > 0.0 for c in costs):
            problems.append("gbest_cost not finite and positive")
        if any(b > a for a, b in zip(costs, costs[1:])):
            problems.append("gbest_cost increased between iterations")
    return problems


def _swarm_runs(rows):
    runs = {}
    for row in rows:
        key = (row["seed"], row["n_particles"])
        runs.setdefault(key, []).append((int(row["iteration"]), _float(row, "gbest_cost")))
    return runs


_SANITY = {
    "nonlinear_compare": _sanity_nonlinear,
    "step_lms": _sanity_step,
    "swarm_pso": _sanity_swarm,
}


# ---------------------------------------------------------------------------
# quality of the result


def quality(workload: Workload, rows: list[dict]) -> dict[str, float | None]:
    """Seed-averaged quality over the rows of the quality repetitions.

    ``ber_*``/``mse_*`` are means (``mse_*`` over finite rows); an entry is
    None where the workload does not run that algorithm.  On swarm_pso,
    ``mse_pso`` is the mean final ``gbest_cost``.

    ``mse_geomean`` is the geometric mean of the workload's residual-power
    cells, defined on every workload: each LMS and PSO ``mse`` on
    nonlinear_compare, each search's final ``gbest_cost`` on swarm_pso, and
    the ``mse`` of the step sizes that converge on step_lms.  A geometric
    mean moves by the same share whichever cells change, so a PSO that ends
    10 % worse in every cell moves it by about 5 % on nonlinear_compare
    (half its cells are PSO) and by 10 % on swarm_pso.  mu = 0.2 is left
    out: its residual power swings between 1e7 and 1e9 from seed to seed.
    """
    out = dict.fromkeys(("ber_lms", "ber_pso", "mse_lms", "mse_pso"))
    if workload.name == "swarm_pso":
        cells = [max(run)[1] for run in _swarm_runs(rows).values()]
        out["mse_pso"] = statistics.fmean(cells)
    else:
        for algorithm in ("LMS", "PSO"):
            chosen = [row for row in rows if row["algorithm"] == algorithm]
            if not chosen:
                continue
            finite = [m for m in (_float(row, "mse") for row in chosen) if math.isfinite(m)]
            out[f"mse_{algorithm.lower()}"] = statistics.fmean(finite)
            if "ber" in chosen[0]:
                out[f"ber_{algorithm.lower()}"] = statistics.fmean(_float(row, "ber") for row in chosen)
        if workload.name == "step_lms":
            rows = [row for row in rows if _float(row, "mu") <= CONVERGING_STEP]
        cells = [_float(row, "mse") for row in rows]
    out["mse_geomean"] = statistics.geometric_mean(cells)
    return out
