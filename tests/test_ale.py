"""Tests for the delayed regressor window and fixed-weight filtering."""

import numpy as np
import pytest

from alebench.ale import AleConfig, filter_frame
from alebench.channel import add_awgn
from alebench.pso import evaluate_cost
from alebench.signal import ModConfig, generate_bits, modulate


def _frame(h=256, seed=30, snr_db=2.0):
    x = modulate(generate_bits(h, seed), ModConfig(m=2))
    return add_awgn(x, snr_db, seed + 1)


class TestRegressor:
    """The delayed window d[n - delay - k], k < taps, seen through filter_frame:
    weight k alone reproduces d delayed by delay + k."""

    def test_two_tap_window(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        cfg = AleConfig(taps=2, delay=1)
        assert filter_frame(d, [1.0, 0.0], cfg)[2] == 2
        assert filter_frame(d, [0.0, 1.0], cfg)[2] == 1

    def test_single_tap_longer_delay(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        y = filter_frame(d, [1.0], AleConfig(taps=1, delay=2))
        np.testing.assert_array_equal(y, [0, 0, 1, 2])

    def test_out_of_range_without_padding(self):
        """Windows reaching before the frame start are outside
        range(warmup, len(d)), and a frame with no full window is rejected."""
        cfg = AleConfig(taps=2, delay=1)
        y = filter_frame(np.ones(4), [1.0, 0.0], cfg)
        assert range(cfg.warmup, len(y)) == range(2, 4)
        with pytest.raises(ValueError):
            filter_frame(np.ones(3), [1.0, 0.0], cfg)

    def test_zero_padding_fills_prefix(self):
        d = _frame(h=64)
        for taps, delay in ((1, 1), (3, 1), (3, 2), (5, 3)):
            cfg = AleConfig(taps=taps, delay=delay)
            for k in range(taps):
                lag = delay + k
                y = filter_frame(d, np.eye(taps)[k], cfg)
                np.testing.assert_array_equal(y, np.concatenate([np.zeros(lag), d[:-lag]]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AleConfig(taps=0)
        with pytest.raises(ValueError):
            AleConfig(delay=0)


class TestFilterFrame:
    def test_identity_tap_reproduces_delayed_input(self):
        d = _frame()
        cfg = AleConfig(taps=4, delay=1)
        w = np.array([1.0, 0.0, 0.0, 0.0])
        y = filter_frame(d, w, cfg)
        np.testing.assert_allclose(y[cfg.warmup :], d[cfg.warmup - 1 : -1], atol=1e-15)

    def test_zero_weights_pass_input_through_residual(self):
        d = _frame()
        cfg = AleConfig(taps=3, delay=2)
        y = filter_frame(d, np.zeros(3), cfg)
        np.testing.assert_array_equal(y, np.zeros_like(d))
        np.testing.assert_array_equal(d - y, d)

    def test_two_tap_hand_computation(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        cfg = AleConfig(taps=2, delay=1)
        y = filter_frame(d, [0.5, 0.5], cfg)
        assert y[2] == pytest.approx(1.5)
        assert (d - y)[2] == pytest.approx(1.5)
        assert range(cfg.warmup, len(d)) == range(2, 4)

    def test_short_frame_rejected(self):
        """A frame too short for the enhancer is rejected, and so is
        anything but one 1-D frame."""
        with pytest.raises(ValueError):
            filter_frame(np.ones(6), np.ones(5), AleConfig(taps=5, delay=1))
        with pytest.raises(ValueError, match=r"input must be a non-empty 1-D stream, got shape \(2, 20\)"):
            filter_frame(np.ones((2, 20), complex), np.ones(5), AleConfig())

    def test_non_finite_frame_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            d = _frame(h=64)
            d[10] = bad
            with pytest.raises(ValueError, match="finite"):
                filter_frame(d, np.ones(5), AleConfig(taps=5, delay=1))

    def test_bad_weights_rejected(self):
        d = _frame(h=64)
        with pytest.raises(ValueError):
            filter_frame(d, np.ones(3), AleConfig(taps=5, delay=1))
        with pytest.raises(ValueError):
            filter_frame(d, [np.inf, 0, 0, 0, 0], AleConfig(taps=5, delay=1))

    def test_linearity(self):
        d = _frame(seed=31)
        cfg = AleConfig(taps=5, delay=1)
        rng = np.random.default_rng(32)
        w1 = rng.normal(size=5)
        w2 = rng.normal(size=5)
        a, b = 0.7, -1.3
        combined = filter_frame(d, a * w1 + b * w2, cfg)
        separate = a * filter_frame(d, w1, cfg) + b * filter_frame(d, w2, cfg)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_reconstruction_identity(self):
        d = _frame(seed=33)
        cfg = AleConfig(taps=5, delay=1)
        y = filter_frame(d, np.random.default_rng(34).normal(size=5), cfg)
        # re-adding y to the residual d - y reconstructs d to the last rounding
        e = d - y
        sl = slice(cfg.warmup, len(d))
        np.testing.assert_allclose((e + y)[sl], d[sl], rtol=0, atol=1e-14)

    def test_residual_power_matches_swarm_cost(self):
        """The residual power of the filtered frame from cfg.warmup on is the
        cost the swarm scores the same fixed weights by."""
        rng = np.random.default_rng(102)
        for _ in range(20):
            cfg = AleConfig(taps=int(rng.integers(1, 9)), delay=int(rng.integers(1, 4)))
            h = int(rng.integers(16, 80))
            d = rng.normal(size=h) + 1j * rng.normal(size=h)
            w = rng.normal(size=cfg.taps)
            residual = (d - filter_frame(d, w, cfg))[cfg.warmup :]
            assert np.mean(np.abs(residual) ** 2) == pytest.approx(evaluate_cost(w, d, cfg), rel=1e-12)

    def test_shift_property(self):
        """Delaying the input by one sample delays the output by one sample."""
        d = _frame(seed=35)
        cfg = AleConfig(taps=4, delay=1)
        w = np.random.default_rng(36).normal(size=4)
        base = filter_frame(d, w, cfg)
        shifted = filter_frame(np.concatenate([[0.0], d[:-1]]), w, cfg)
        start = cfg.warmup + 1
        np.testing.assert_allclose(shifted[start:], base[start - 1 : -1], atol=1e-12)
