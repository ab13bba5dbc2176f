"""Acceptance gates for the benchmark, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite drives the
real experiment runner at the default operating point (10,000-sample BPSK
frames, 5 taps, unit delay) and checks orderings, oracle equivalences,
exact invariants, and byte-level reproducibility.

Known failure: the small-step clause of the step-size sweep asserts that
mu=0.02 beats mu=0.005.  At -2 dB the optimal weights w* = R^-1 p are
almost zero (symbols plus white noise barely predict the next sample), and
LMS starts from zero weights, so there is no convergence transient for
small steps to pay; what is left is misadjustment, which grows with mu.
Measured residual power is increasing in mu and the clause cannot hold.
It is kept as stated rather than loosened.
"""

import math

import numpy as np
import pytest

from alebench import bench
from alebench.ale import AleConfig, _residual
from alebench.bench import emit_csv, parse_config, run_experiment
from alebench.channel import DEFAULT_PROFILES, NonlinearProfile, add_awgn
from alebench.lms import lms_batch
from alebench.pso import PsoConfig, _gram, pso_batch
from alebench.signal import ModConfig, demodulate, generate_bits, modulate
from costs import swarm_cost
from oracles import brute_force_cost, real_least_squares_weights, squared_error_gradient_fd


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared experiment tables (computed once per session)

@pytest.fixture(scope="module")
def step_table():
    spec = parse_config("run.n_seeds = 20", kind="step_sweep")
    table = run_experiment(spec)
    return {row["mu"]: row["mse"] for row in table.mean_rows}


@pytest.fixture(scope="module")
def swarm_histories():
    spec = parse_config(
        "run.n_seeds = 10\nrun.sweep_values = 10, 60\npso.max_iters = 60",
        kind="particle_sweep",
    )
    table = run_experiment(spec)
    out = {}
    for row in table.mean_rows:
        out.setdefault(row["n_particles"], {})[row["iteration"]] = row["gbest_cost"]
    return {
        n: np.array([cost[i] for i in sorted(cost)]) for n, cost in out.items()
    }


@pytest.fixture(scope="module")
def awgn_table():
    spec = parse_config("run.n_seeds = 10", kind="ber_awgn")
    table = run_experiment(spec)
    return {(row["snr_db"], row["algorithm"]): row for row in table.mean_rows}


@pytest.fixture(scope="module")
def nonlinear_table():
    spec = parse_config(
        "run.n_seeds = 10\nrun.snr_grid = 0, 2, 4, 6, 8, 10", kind="ber_nonlinear"
    )
    table = run_experiment(spec)
    return {
        (row["profile"], row["snr_db"], row["algorithm"]): row
        for row in table.mean_rows
    }


# ---------------------------------------------------------------------------
# 1. step-size sweep orderings (-2 dB, L=5, H=10,000, 20 seeds)

def test_step_size_sweep_rising_tail(step_table):
    mid_vs_large = step_table[0.02] < step_table[0.08]
    tail = [step_table[mu] for mu in (0.04, 0.08, 0.2)]
    rising = all(a < b for a, b in zip(tail, tail[1:]))
    ok = _report(
        "step sweep, rising tail",
        mid_vs_large and rising,
        f"mse(0.02)={step_table[0.02]:.4f} < mse(0.08)={step_table[0.08]:.4f}; "
        f"tail 0.04..0.2 = {[round(v, 3) for v in tail]}",
    )
    assert ok


def test_step_size_sweep_small_step_penalty(step_table):
    ok = _report(
        "step sweep, small-step penalty",
        step_table[0.02] < step_table[0.005],
        f"mse(0.02)={step_table[0.02]:.4f} vs mse(0.005)={step_table[0.005]:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. swarm-size convergence (N=60 settles by iteration 15; N=10 later)

def test_swarm_size_convergence(swarm_histories):
    h60 = swarm_histories[60]
    h10 = swarm_histories[10]
    close_at_15 = h60[14] <= 1.05 * h60[59]

    def first_within_five_percent(hist):
        final = hist[59]
        return 1 + int(np.argmax(hist <= 1.05 * final))

    k60 = first_within_five_percent(h60)
    k10 = first_within_five_percent(h10)
    ok = _report(
        "swarm-size convergence",
        close_at_15 and k10 > k60,
        f"N=60 cost@15/cost@60 = {h60[14] / h60[59]:.4f}; "
        f"5%-closeness first reached at iteration {k60} (N=60) vs {k10} (N=10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. PSO at or below LMS across the SNR grid (AWGN only, 10 seeds)

def test_pso_dominates_lms_across_snr(awgn_table):
    grid = sorted({snr for snr, _ in awgn_table})
    ber_points = [s for s in grid if s >= -6.0]
    mse_points = [s for s in grid if s >= -2.0]
    ber_violations = [
        s for s in ber_points
        if awgn_table[(s, "PSO")]["ber"] > awgn_table[(s, "LMS")]["ber"]
    ]
    mse_violations = [
        s for s in mse_points
        if awgn_table[(s, "PSO")]["mse"] > awgn_table[(s, "LMS")]["mse"]
    ]
    ok = _report(
        "PSO vs LMS over SNR",
        len(ber_violations) <= 1 and len(mse_violations) <= 1,
        f"BER violations at {ber_violations or 'none'} "
        f"(of {len(ber_points)} points >= -6 dB); "
        f"MSE violations at {mse_violations or 'none'} "
        f"(of {len(mse_points)} points >= -2 dB)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. nonlinear distortion degrades BER; PSO still at or below LMS (>= 0 dB)

def test_nonlinear_noise_degrades_link(awgn_table, nonlinear_table):
    profiles = sorted({key[0] for key in nonlinear_table})
    points = sorted({key[1] for key in nonlinear_table})
    problems = []
    for profile in profiles:
        for algo in ("LMS", "PSO"):
            worse = [
                s for s in points
                if nonlinear_table[(profile, s, algo)]["ber"]
                < awgn_table[(s, algo)]["ber"]
            ]
            if len(worse) > 1:
                problems.append(f"{profile}/{algo} beat the clean channel at {worse}")
        ordering = [
            s for s in points
            if nonlinear_table[(profile, s, "PSO")]["ber"]
            > nonlinear_table[(profile, s, "LMS")]["ber"]
        ]
        if len(ordering) > 1:
            problems.append(f"{profile}: PSO above LMS at {ordering}")
    ok = _report(
        "nonlinear degradation",
        not problems,
        "; ".join(problems) if problems else
        f"checked {len(profiles)} profiles x {len(points)} grid points x both algorithms",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. oracle equivalences

def test_cost_matches_brute_force_oracle():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(100):
        taps = int(rng.integers(1, 9))
        delay = int(rng.integers(1, 4))
        h = int(rng.integers(taps + delay + 2, 65))
        d = rng.normal(size=h) + 1j * rng.normal(size=h)
        w = rng.normal(size=taps)
        fast = swarm_cost(w, d, AleConfig(taps=taps, delay=delay))
        slow = brute_force_cost(w, d, taps, delay)
        worst = max(worst, abs(fast - slow) / abs(slow))
    ok = _report(
        "cost vs brute-force oracle",
        worst < 1e-12,
        f"worst relative deviation {worst:.2e} over 100 instances",
    )
    assert ok


def test_update_matches_finite_difference_gradient():
    """lms_batch's update of sample n, from its weights w after the first n
    samples of a real frame, is w - (mu/2) * grad(e^2), the gradient
    measured by central finite differences."""
    rng = np.random.default_rng(502)
    worst = 0.0
    for _ in range(100):
        taps = int(rng.integers(1, 9))
        ale = AleConfig(taps=taps, delay=int(rng.integers(1, 4)))
        mu = float(rng.uniform(0.001, 0.1))
        n = int(rng.integers(ale.delay + taps + 1, 64))
        d = rng.normal(size=n + 1)
        # complex copies: lms_batch writes its residuals over the frames
        (w,), _, _ = lms_batch(d[None, :n].astype(complex), [mu], ale)
        (stepped,), _, _ = lms_batch(d[None].astype(complex), [mu], ale)
        v = d[n - ale.delay - np.arange(taps)]
        expected = w - (mu / 2.0) * squared_error_gradient_fd(w, d[n], v)
        scale = np.maximum(np.abs(expected), 1e-9)
        worst = max(worst, float(np.max(np.abs(stepped - expected) / scale)))
    ok = _report(
        "update vs finite-difference gradient",
        worst < 1e-6,
        f"worst per-tap relative deviation {worst:.2e} over 100 instances",
    )
    assert ok


def test_metric_equals_cost_for_fixed_weights():
    rng = np.random.default_rng(503)
    cfg = AleConfig(taps=5, delay=1)
    worst = 0.0
    for _ in range(20):
        h = int(rng.integers(32, 128))
        d = rng.normal(size=h) + 1j * rng.normal(size=h)
        w = rng.normal(size=5)
        a = np.mean(np.abs(_residual(d, w, cfg)) ** 2)
        b = swarm_cost(w, d, cfg)
        worst = max(worst, abs(a - b) / abs(b))
    ok = _report(
        "metric equals swarm cost",
        worst < 1e-12,
        f"worst relative deviation {worst:.2e} over 20 frames",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. exact-by-construction invariants

def test_exact_invariants():
    rng = np.random.default_rng(504)
    checks = []

    monotone = True
    for trial in range(50):
        h = int(rng.integers(40, 100))
        d = rng.normal(size=h) + 1j * rng.normal(size=h)
        cfg = PsoConfig(n_particles=6, max_iters=12, tol=0.0)
        _, (history,) = pso_batch(d[None], [trial], cfg, AleConfig(taps=3, delay=1))
        monotone &= bool(np.all(np.diff(history) <= 0.0))
    checks.append(("gbest history non-increasing on 50 runs", monotone))

    d = rng.normal(size=512) + 1j * rng.normal(size=512)
    ale = AleConfig(taps=5, delay=1)
    w = rng.normal(size=5)
    y = np.convolve(d, w)[ale.warmup - ale.delay : len(d) - ale.delay]  # y[n] = sum_k w[k] d[n - delay - k]
    residual_ok = np.allclose(_residual(d, w, ale) + y, d[ale.warmup :], rtol=0, atol=1e-14)
    checks.append(("residual identity e = d - y", residual_ok))

    round_trip = True
    for m in (2, 4, 8):
        cfg = ModConfig(m=m)
        k = cfg.bits_per_symbol
        bits = generate_bits(240 * k, seed=m)
        round_trip &= bool(
            np.array_equal(demodulate(modulate(bits, cfg), cfg), bits)
        )
    checks.append(("demodulate(modulate(bits)) identity for M in {2,4,8}", round_trip))

    x = modulate(generate_bits(1_000_000, seed=505), ModConfig(m=2))
    noise = add_awgn(x, snr_db=10.0, seed=506) - x
    measured = 10 * np.log10(np.mean(np.abs(x) ** 2) / np.mean(np.abs(noise) ** 2))
    checks.append((f"empirical SNR {measured:.3f} dB within 0.1 of 10", abs(measured - 10.0) < 0.1))

    failed = [name for name, good in checks if not good]
    ok = _report(
        "exact invariants",
        not failed,
        "; ".join(failed) if failed else "all four invariant families hold",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. byte-identical reruns, any parallelism level

def test_csv_determinism(tmp_path):
    text = (
        "frame.h = 500\nrun.n_seeds = 2\nrun.snr_grid = -4, 0, 4\n"
        "pso.n_particles = 10\npso.max_iters = 10\n"
    )
    spec = parse_config(text, kind="ber_awgn")
    outputs = []
    for name, jobs in (("first", 1), ("second", 1), ("pool", 3)):
        table = run_experiment(spec, jobs=jobs)
        outputs.append(emit_csv(table, tmp_path / name))
    identical = all(
        a.read_bytes() == b.read_bytes()
        for paths in zip(*outputs)
        for a, b in zip(paths, paths[1:])
    )
    ok = _report(
        "CSV determinism",
        identical,
        "rerun and 3-process run produced identical bytes",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. theory: the prediction floor of a distorted frame in closed form

def _floor_in_closed_form(profile, snr_db: float, ale: AleConfig) -> tuple[float, float]:
    """(c, J*) of a unit-modulus symbol stream under `profile` at `snr_db`.
    On PSK the cubic term is a gain of 1 + g, so the frame is (1 + g) s plus
    the tones plus white noise of the symbol-plus-tone power over
    10^(snr_db/10), with r(k) = ((1 + g)^2 + noise) delta(k)
    + sum A^2 cos(2 pi f k).  For real weights R[j][k] = r(|j - k|),
    p[k] = r(delay + k), c = r(0) and J* = c - p'R^-1 p (Wiener-Hopf)."""
    symbols = (1.0 + profile.cubic_gain) ** 2
    noise = (symbols + sum(amp**2 for amp, _, _ in profile.tones)) / 10.0 ** (snr_db / 10.0)

    def r(k):
        white = symbols + noise if k == 0 else 0.0
        return white + sum(amp**2 * math.cos(2.0 * math.pi * freq * k) for amp, freq, _ in profile.tones)

    R = np.array([[r(abs(j - k)) for k in range(ale.taps)] for j in range(ale.taps)])
    p = np.array([r(ale.delay + k) for k in range(ale.taps)])
    return r(0), r(0) - p @ np.linalg.solve(R, p)


def test_prediction_floor_matches_closed_form():
    """On the runner's own frames (default base seed, 10 seeds, 5 taps,
    delay 1), the 10-seed mean of each frame's floor c - p'R^-1 p, from the
    swarm's (R, p, c), over the closed form lies in [0.97, 1.03] for AWGN
    and each default profile at -10, -2, 4 and 10 dB.  It checks the
    tones, the cubic gain and the SNR calibration against theory."""
    ratios: dict[tuple, list[float]] = {}
    for kind in ("ber_awgn", "ber_nonlinear"):
        spec = parse_config("run.snr_grid = -10, -2, 4, 10", kind=kind)
        runs = [(i, j) for i in range(len(bench._sweep_points(spec))) for j in range(spec.n_seeds)]
        bases, _, _, frames = bench._batch_frames(spec, runs)
        for point, d in zip(bases, frames):
            R, p, c = _gram(d, spec.ale)
            name = point.get("profile", "AWGN")
            _, theory = _floor_in_closed_form(DEFAULT_PROFILES.get(name, NonlinearProfile()), point["snr_db"], spec.ale)
            ratios.setdefault((name, point["snr_db"]), []).append((c - p @ np.linalg.solve(R, p)) / theory)
    means = {key: float(np.mean(values)) for key, values in ratios.items()}
    outside = [f"{name} {snr:g} dB: {mean:.4f}" for (name, snr), mean in means.items() if not 0.97 <= mean <= 1.03]
    ok = _report(
        "prediction floor vs closed form",
        len(means) == 16 and not outside,
        "; ".join(outside) or f"10-seed means {min(means.values()):.4f}-{max(means.values()):.4f} at all 16 points",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. theory: the channel and the demodulator against textbook BPSK

def test_unfiltered_bpsk_errors_match_theory():
    """On the runner's own ber_awgn frames (default base seed, 10 seeds, 11
    SNR points), the received samples from ale.warmup on, decided without
    any filter, err at BPSK's textbook rate q = Q(sqrt(2 SNR)) =
    erfc(sqrt(SNR)) / 2: at every point with N q >= 20 expected errors
    among its N bits, the binomial z-score (errors - N q) / sqrt(N q (1 - q))
    lies within +-3.29 (99.9 %).  It checks the channel's SNR calibration
    and the demodulator against theory, not against files the code wrote."""
    spec = parse_config("", kind="ber_awgn")
    runs = [(i, j) for i in range(len(bench._sweep_points(spec))) for j in range(spec.n_seeds)]
    bases, _, bits, frames = bench._batch_frames(spec, runs)
    k, v0 = spec.mod.bits_per_symbol, spec.ale.warmup
    errors: dict[float, int] = {}
    counts: dict[float, int] = {}
    for point, sent, d in zip(bases, bits[:, k * v0 :], frames):
        snr = point["snr_db"]
        errors[snr] = errors.get(snr, 0) + int(np.count_nonzero(demodulate(d[v0:], spec.mod) != sent))
        counts[snr] = counts.get(snr, 0) + sent.size
    scores = {}
    for snr, n in counts.items():
        q = 0.5 * math.erfc(math.sqrt(10.0 ** (snr / 10.0)))
        if n * q >= 20:
            scores[snr] = (errors[snr] - n * q) / math.sqrt(n * q * (1.0 - q))
    outside = [f"{snr:g} dB: z = {z:+.2f}" for snr, z in scores.items() if not abs(z) <= 3.29]
    worst = max(scores, key=lambda snr: abs(scores[snr]))
    ok = _report(
        "unfiltered BPSK errors vs Q(sqrt(2 SNR))",
        len(scores) == 9 and not outside,
        "; ".join(outside)
        or f"|z| <= {abs(scores[worst]):.2f} at {len(scores)} points, worst at {worst:g} dB "
        f"({errors[worst]} errors in {counts[worst]} bits)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. theory: LMS misadjustment from each frame's own statistics

def test_lms_misadjustment_matches_small_step_theory():
    """On step_sweep's default frames (-2 dB, 10 seeds), at mu = 0.005 and
    0.01, the 10-seed mean of the excess power mse - J* over the 10-seed
    mean of the small-step prediction mu tr(G) / 2 lies in [0.9, 1.25].
    Per frame, from sample ale.warmup on, with v_n[k] = d[n - delay - k]
    and w* the real least-squares weights: e*_n = d[n] - w*'v_n,
    J* = mean |e*|^2, g_n = Re(e*_n) Re(v_n) + Im(e*_n) Im(v_n), the
    update direction at w*, and tr(G) = mean |g_n|^2.  The mse is the
    step_sweep raw row's."""
    spec = parse_config("", kind="step_sweep")
    mse = {row["seed"]: row["mse"] for row in run_experiment(spec).raw_rows}
    points = bench._sweep_points(spec)
    runs = [(i, j) for i, point in enumerate(points) if point["mu"] in (0.005, 0.01) for j in range(spec.n_seeds)]
    bases, _, _, frames = bench._batch_frames(spec, runs)
    taps, delay, v0 = spec.ale.taps, spec.ale.delay, spec.ale.warmup
    excess: dict[float, list[float]] = {}
    predicted: dict[float, list[float]] = {}
    for base, d in zip(bases, frames):
        v = np.stack([d[v0 - delay - k : d.size - delay - k] for k in range(taps)], axis=1)
        e = d[v0:] - v @ real_least_squares_weights(d, taps, delay)
        g = e.real[:, None] * v.real + e.imag[:, None] * v.imag
        mu = base["mu"]
        excess.setdefault(mu, []).append(mse[base["seed"]] - np.mean(np.abs(e) ** 2))
        predicted.setdefault(mu, []).append(mu * np.mean(np.sum(g**2, axis=1)) / 2.0)
    ratios = {mu: float(np.mean(excess[mu]) / np.mean(predicted[mu])) for mu in excess}
    ok = _report(
        "LMS misadjustment vs mu tr(G) / 2",
        sorted(ratios) == [0.005, 0.01] and all(0.9 <= r <= 1.25 for r in ratios.values()),
        "; ".join(f"mu = {mu:g}: {r:.3f}" for mu, r in ratios.items()),
    )
    assert ok
