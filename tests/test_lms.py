"""Tests for the sample-recursive gradient adaptation."""

import numpy as np
import pytest

from alebench.ale import AleConfig
from alebench.channel import ChannelConfig, transmit
from alebench.errors import DivergenceError
from alebench.lms import LmsConfig, lms_run, lms_step
from alebench.signal import ModConfig, generate_bits, modulate
from oracles import loop_lms, real_least_squares_weights, squared_error_gradient_fd

ALE = AleConfig(taps=5, delay=1)
H = 10_000


def _awgn_frame(snr_db, bits_seed, noise_seed, h=H):
    x = modulate(generate_bits(h, bits_seed), ModConfig(m=2))
    return transmit(x, ChannelConfig(snr_db=snr_db, seed=noise_seed)).d


def _assert_rel(actual, expected, rel=1e-12):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


def _assert_matches_loop_oracle(d, taps, delay, mu):
    """Compare lms_run with loop_lms; returns which way the run ended."""
    ale = AleConfig(taps=taps, delay=delay)
    expected = loop_lms(d, taps, delay, mu)
    if isinstance(expected[0], int):
        index, peak = expected
        with pytest.raises(DivergenceError) as excinfo:
            lms_run(d, LmsConfig(mu=mu), ale)
        assert excinfo.value.sample_index == index
        assert excinfo.value.max_weight == pytest.approx(peak, rel=1e-12)
        return "diverged"
    weights, y = expected
    trace = lms_run(d, LmsConfig(mu=mu), ale)
    _assert_rel(trace.final_weights, weights)
    _assert_rel(trace.run.y, y)
    _assert_rel(trace.run.e, d - y)
    assert trace.run.valid == range(ale.warmup, d.size)
    return "converged"


class TestLmsStep:
    def test_zero_error_fixes_weights(self):
        w = np.array([0.3, -0.2])
        np.testing.assert_array_equal(lms_step(w, 0.0, np.array([1.0, 2.0]), 0.1), w)

    def test_zero_step_fixes_weights(self):
        w = np.array([0.3, -0.2])
        np.testing.assert_array_equal(lms_step(w, 1.7, np.array([1.0, 2.0]), 0.0), w)

    def test_single_term_hand_computation(self):
        w_next = lms_step(np.zeros(2), 1.0, np.array([1.0, 0.0]), 0.1)
        np.testing.assert_allclose(w_next, [0.1, 0.0], atol=1e-15)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError):
            lms_step(np.zeros(2), np.inf, np.ones(2), 0.1)
        with pytest.raises(ValueError):
            lms_step(np.zeros(2), 1.0, np.array([np.nan, 0.0]), 0.1)

    def test_matches_negative_half_gradient(self):
        """The update equals w - (mu/2) * grad(e^2) for real signals, with the
        gradient measured by central finite differences."""
        rng = np.random.default_rng(40)
        for _ in range(20):
            taps = int(rng.integers(1, 8))
            w = rng.normal(size=taps)
            v = rng.normal(size=taps)
            d_n = rng.normal()
            mu = float(rng.uniform(0.001, 0.1))
            e_n = d_n - np.dot(w, v)
            stepped = lms_step(w, e_n, v, mu)
            expected = w - (mu / 2.0) * squared_error_gradient_fd(w, d_n, v)
            np.testing.assert_allclose(stepped, expected, rtol=1e-6, atol=1e-9)


class TestLmsRun:
    def test_zero_step_never_adapts(self):
        d = _awgn_frame(0.0, 41, 42, h=512)
        trace = lms_run(d, LmsConfig(mu=0.0), ALE)
        np.testing.assert_array_equal(trace.final_weights, np.zeros(5))
        np.testing.assert_array_equal(trace.run.e, d)

    def test_reconstruction_and_mse_trace(self):
        d = _awgn_frame(-2.0, 43, 44, h=2048)
        trace = lms_run(d, LmsConfig(mu=0.01), ALE)
        np.testing.assert_array_equal(trace.run.e, d - trace.run.y)
        np.testing.assert_allclose(trace.run.e + trace.run.y, d, rtol=0, atol=1e-14)

    def test_deterministic(self):
        d = _awgn_frame(0.0, 45, 46, h=1024)
        a = lms_run(d, LmsConfig(mu=0.02), ALE)
        b = lms_run(d, LmsConfig(mu=0.02), ALE)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)
        np.testing.assert_array_equal(a.run.y, b.run.y)

    def test_tracks_least_squares_solution_on_sinusoid(self):
        """On a predictable (narrowband) frame the adapted weights settle
        near the real-constrained least-squares solution."""
        rng = np.random.default_rng(47)
        n = np.arange(H)
        tone = np.exp(1j * (2 * np.pi * 0.04 * n + 0.7))
        noise = np.sqrt(0.25 / 2) * (rng.standard_normal(H) + 1j * rng.standard_normal(H))
        d = tone + noise
        trace = lms_run(d, LmsConfig(mu=0.01), ALE)
        wiener = real_least_squares_weights(d, ALE.taps, ALE.delay)
        distance = np.linalg.norm(trace.final_weights - wiener) / np.linalg.norm(wiener)
        assert distance < 0.10

    def test_oversized_step_diverges(self):
        d = _awgn_frame(0.0, 48, 49, h=4096)
        with pytest.raises(DivergenceError) as excinfo:
            lms_run(d, LmsConfig(mu=10.0), ALE)
        assert excinfo.value.sample_index >= ALE.warmup

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            lms_run(np.ones(6, dtype=complex), LmsConfig(mu=0.01), ALE)

    @pytest.mark.parametrize("mu", [0.005, 0.08, 0.2])
    def test_matches_loop_oracle(self, mu):
        """Output, residual and final weights agree with the explicit loop
        to 1e-12 of their largest magnitude; where the oracle diverges
        (the longest filters at mu = 0.2), the crossing agrees instead."""
        for seed in range(3):
            d = _awgn_frame(0.0, 60 + seed, 70 + seed, h=300)
            for taps in range(1, 9):
                for delay in range(1, 4):
                    _assert_matches_loop_oracle(d, taps, delay, mu)

    @pytest.mark.parametrize("mu, taps_range", [(0.3, range(6, 9)), (10.0, range(1, 9))])
    def test_divergence_matches_loop_oracle(self, mu, taps_range):
        for seed in range(3):
            d = _awgn_frame(0.0, 60 + seed, 70 + seed, h=300)
            for taps in taps_range:
                for delay in range(1, 4):
                    assert _assert_matches_loop_oracle(d, taps, delay, mu) == "diverged"

    def test_settled_frame_end_not_noisier_than_start(self):
        """With mu in the low-residual band, the residual power over the last
        tenth of the frame stays below the first tenth (20-seed average)."""
        firsts, lasts = [], []
        for s in range(20):
            d = _awgn_frame(-2.0, s, 10_000 + s)
            trace = lms_run(d, LmsConfig(mu=0.02), ALE)
            body = np.abs(trace.run.e[trace.run.valid.start :]) ** 2
            tenth = len(body) // 10
            firsts.append(np.mean(body[:tenth]))
            lasts.append(np.mean(body[-tenth:]))
        assert np.mean(lasts) < np.mean(firsts)
