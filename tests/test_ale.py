"""Tests for the delayed regressor window and fixed-weight filtering."""

import numpy as np
import pytest

from alebench.ale import AleConfig, filter_frame
from alebench.channel import ChannelConfig, transmit
from alebench.signal import ModConfig, generate_bits, modulate


def _frame(h=256, seed=30, snr_db=2.0):
    x = modulate(generate_bits(h, seed), ModConfig(m=2))
    return transmit(x, ChannelConfig(snr_db=snr_db, seed=seed + 1))


class TestRegressor:
    """The delayed window d[n - delay - k], k < taps, seen through filter_frame:
    weight k alone reproduces d delayed by delay + k."""

    def test_two_tap_window(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        cfg = AleConfig(taps=2, delay=1)
        assert filter_frame(d, [1.0, 0.0], cfg).y[2] == 2
        assert filter_frame(d, [0.0, 1.0], cfg).y[2] == 1

    def test_single_tap_longer_delay(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        run = filter_frame(d, [1.0], AleConfig(taps=1, delay=2))
        np.testing.assert_array_equal(run.y, [0, 0, 1, 2])

    def test_out_of_range_without_padding(self):
        """Windows reaching before the frame start are outside `valid`, and a
        frame with no full window is rejected."""
        cfg = AleConfig(taps=2, delay=1)
        assert filter_frame(np.ones(4), [1.0, 0.0], cfg).valid == range(2, 4)
        with pytest.raises(ValueError):
            filter_frame(np.ones(3), [1.0, 0.0], cfg)

    def test_zero_padding_fills_prefix(self):
        d = _frame(h=64)
        for taps, delay in ((1, 1), (3, 1), (3, 2), (5, 3)):
            cfg = AleConfig(taps=taps, delay=delay)
            for k in range(taps):
                lag = delay + k
                y = filter_frame(d, np.eye(taps)[k], cfg).y
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
        run = filter_frame(d, w, cfg)
        np.testing.assert_allclose(run.y[run.valid.start : run.valid.stop], d[cfg.warmup - 1 : -1], atol=1e-15)

    def test_zero_weights_pass_input_through_residual(self):
        d = _frame()
        cfg = AleConfig(taps=3, delay=2)
        run = filter_frame(d, np.zeros(3), cfg)
        np.testing.assert_array_equal(run.y, np.zeros_like(d))
        np.testing.assert_array_equal(run.e, d)

    def test_two_tap_hand_computation(self):
        run = filter_frame(np.array([1.0, 2.0, 3.0, 4.0]), [0.5, 0.5], AleConfig(taps=2, delay=1))
        assert run.y[2] == pytest.approx(1.5)
        assert run.e[2] == pytest.approx(1.5)
        assert run.valid == range(2, 4)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            filter_frame(np.ones(6), np.ones(5), AleConfig(taps=5, delay=1))

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
        separate = a * filter_frame(d, w1, cfg).y + b * filter_frame(d, w2, cfg).y
        np.testing.assert_allclose(combined.y, separate, atol=1e-12)

    def test_reconstruction_identity(self):
        d = _frame(seed=33)
        cfg = AleConfig(taps=5, delay=1)
        run = filter_frame(d, np.random.default_rng(34).normal(size=5), cfg)
        # the residual is d - y by construction, bit for bit; re-adding y
        # reconstructs d to the last rounding
        np.testing.assert_array_equal(run.e, d - run.y)
        sl = slice(run.valid.start, run.valid.stop)
        np.testing.assert_allclose((run.e + run.y)[sl], d[sl], rtol=0, atol=1e-14)

    def test_shift_property(self):
        """Delaying the input by one sample delays the output by one sample."""
        d = _frame(seed=35)
        cfg = AleConfig(taps=4, delay=1)
        w = np.random.default_rng(36).normal(size=4)
        base = filter_frame(d, w, cfg)
        shifted = filter_frame(np.concatenate([[0.0], d[:-1]]), w, cfg)
        start = cfg.warmup + 1
        np.testing.assert_allclose(shifted.y[start:], base.y[start - 1 : -1], atol=1e-12)
