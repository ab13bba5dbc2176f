"""Tests for the enhancer geometry, the frame check and the fixed-weight residual."""

import numpy as np
import pytest

from alebench.ale import AleConfig, _check_frame, _residual
from alebench.channel import add_awgn
from alebench.lms import lms_batch
from alebench.pso import PsoConfig, pso_batch
from alebench.signal import ModConfig, generate_bits, modulate
from costs import swarm_cost
from oracles import brute_force_residual

ALE = AleConfig(taps=5, delay=1)


def _frame(h=256, seed=30, snr_db=2.0):
    x = modulate(generate_bits(h, seed), ModConfig(m=2))
    return add_awgn(x, snr_db, seed + 1)


class TestRegressor:
    """The delayed window d[n - delay - k], k < taps, seen through _residual:
    weight k alone leaves d less d delayed by delay + k, from cfg.warmup on."""

    def test_two_tap_window(self):
        d = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        cfg = AleConfig(taps=2, delay=1)
        assert _residual(d, [1.0, 0.0], cfg)[0] == 3 - 2
        assert _residual(d, [0.0, 1.0], cfg)[0] == 3 - 1

    def test_single_tap_longer_delay(self):
        e = _residual(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex), [1.0], AleConfig(taps=1, delay=2))
        np.testing.assert_array_equal(e, [3 - 1, 4 - 2])

    def test_residual_starts_at_warmup(self):
        """The residual covers range(warmup, len(d)), where every window lies
        inside the frame, and a frame with no sample past a full window is
        rejected."""
        cfg = AleConfig(taps=2, delay=1)
        assert len(_residual(np.ones(4, dtype=complex), [1.0, 0.0], cfg)) == len(range(cfg.warmup, 4)) == 2
        with pytest.raises(ValueError, match="too short"):
            _check_frame(np.ones((1, 3), dtype=complex), cfg)

    def test_each_tap_is_the_frame_delayed(self):
        d = _frame(h=64)
        for taps, delay in ((1, 1), (3, 1), (3, 2), (5, 3)):
            cfg = AleConfig(taps=taps, delay=delay)
            for k in range(taps):
                lag = delay + k
                e = _residual(d, np.eye(taps)[k], cfg)
                np.testing.assert_array_equal(e, d[cfg.warmup :] - d[cfg.warmup - lag : len(d) - lag])
                np.testing.assert_array_equal(e, brute_force_residual(np.eye(taps)[k], d, taps, delay))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AleConfig(taps=0)
        with pytest.raises(ValueError):
            AleConfig(delay=0)


class TestResidual:
    def test_identity_tap_subtracts_delayed_input(self):
        d = _frame()
        cfg = AleConfig(taps=4, delay=1)
        e = _residual(d, np.array([1.0, 0.0, 0.0, 0.0]), cfg)
        np.testing.assert_allclose(e, d[cfg.warmup :] - d[cfg.warmup - 1 : -1], atol=1e-15)

    def test_zero_weights_pass_input_through(self):
        d = _frame()
        cfg = AleConfig(taps=3, delay=2)
        np.testing.assert_array_equal(_residual(d, np.zeros(3), cfg), d[cfg.warmup :])

    def test_two_tap_hand_computation(self):
        d = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        e = _residual(d, [0.5, 0.5], AleConfig(taps=2, delay=1))
        assert e[0] == pytest.approx(1.5)  # 3 - (0.5 * 2 + 0.5 * 1)
        assert e[1] == pytest.approx(1.5)  # 4 - (0.5 * 3 + 0.5 * 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            cfg = AleConfig(taps=int(rng.integers(1, 9)), delay=int(rng.integers(1, 4)))
            h = int(rng.integers(16, 80))
            d = rng.normal(size=h) + 1j * rng.normal(size=h)
            w = rng.normal(size=cfg.taps)
            slow = brute_force_residual(w, d, cfg.taps, cfg.delay)
            np.testing.assert_allclose(_residual(d, w, cfg), slow, rtol=0, atol=1e-12)

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError, match="frame of length 6 too short for delay 1 and 5 taps"):
            _check_frame(np.ones((2, 6), dtype=complex), AleConfig(taps=5, delay=1))

    def test_bad_weights_rejected(self):
        """Weights of the wrong length are refused, not cut to the taps or
        padded out, and so are weights that are not finite."""
        d = _frame(h=64)
        for w in (np.ones(3), np.ones(6), np.ones((1, 5)), [np.inf, 0, 0, 0, 0], [0, 0, np.nan, 0, 0]):
            with pytest.raises(ValueError, match="weights must be 5 finite numbers"):
                _residual(d, w, AleConfig(taps=5, delay=1))

    def test_linearity(self):
        """The output d[warmup:] - e is linear in the weights, and each
        residual is the brute-force one."""
        d = _frame(seed=31)
        cfg = AleConfig(taps=5, delay=1)
        rng = np.random.default_rng(32)
        w1 = rng.normal(size=5)
        w2 = rng.normal(size=5)
        a, b = 0.7, -1.3
        for w in (w1, w2, a * w1 + b * w2):
            np.testing.assert_allclose(_residual(d, w, cfg), brute_force_residual(w, d, 5, 1), rtol=0, atol=1e-12)
        target = d[cfg.warmup :]
        combined = target - _residual(d, a * w1 + b * w2, cfg)
        separate = a * (target - _residual(d, w1, cfg)) + b * (target - _residual(d, w2, cfg))
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_reconstruction_identity(self):
        """Re-adding the output, a convolution of the delayed frame with the
        weights, to the residual reconstructs d to the last rounding."""
        d = _frame(seed=33)
        cfg = AleConfig(taps=5, delay=1)
        w = np.random.default_rng(34).normal(size=5)
        y = np.convolve(d, w)[cfg.warmup - cfg.delay : len(d) - cfg.delay]
        np.testing.assert_allclose(_residual(d, w, cfg) + y, d[cfg.warmup :], rtol=0, atol=1e-14)

    def test_residual_power_matches_swarm_cost(self):
        """The residual's power is the cost the swarm scores the same fixed
        weights by."""
        rng = np.random.default_rng(102)
        for _ in range(20):
            cfg = AleConfig(taps=int(rng.integers(1, 9)), delay=int(rng.integers(1, 4)))
            h = int(rng.integers(16, 80))
            d = rng.normal(size=h) + 1j * rng.normal(size=h)
            w = rng.normal(size=cfg.taps)
            residual = _residual(d, w, cfg)
            assert np.mean(np.abs(residual) ** 2) == pytest.approx(swarm_cost(w, d, cfg), rel=1e-12)

    def test_shift_property(self):
        """Delaying the input by one sample delays the residual by one
        sample, and each is the brute-force residual."""
        d = _frame(seed=35)
        cfg = AleConfig(taps=4, delay=1)
        w = np.random.default_rng(36).normal(size=4)
        shifted_d = np.concatenate([[0.0], d[:-1]])
        base, shifted = _residual(d, w, cfg), _residual(shifted_d, w, cfg)
        np.testing.assert_allclose(shifted[1:], base[:-1], atol=1e-12)
        np.testing.assert_allclose(shifted, brute_force_residual(w, shifted_d, 4, 1), rtol=0, atol=1e-12)


def _batch(refused=None):
    """Two 64-sample frames as lms_batch and pso_batch take them, or made
    into the refused batch named."""
    D = np.array([_frame(h=64), _frame(h=64, seed=40)])
    if isinstance(refused, complex):
        D[1, 10] = refused
    elif refused is not None:
        D = {
            "list": D.tolist(),
            "float64": D.real.copy(),
            "fortran": np.asfortranarray(D),
            "column slice": np.concatenate([D, D], axis=1)[:, ::2],
            "1-D": D[0],
            "3-D": D[None],
            "zero frames": D[:0],
            "delay + taps samples": D[:, :6].copy(),
        }[refused]
    return D


_KERNELS = {
    "_check_frame": _check_frame,
    "lms_batch": lambda D, ale: lms_batch(D, [0.01, 0.01], ale),
    "pso_batch": lambda D, ale: pso_batch(D, [0, 1], PsoConfig(n_particles=4, max_iters=2), ale),
}


class TestBatchContract:
    """_check_frame is the one statement of the batch lms_batch and
    pso_batch take: a C-contiguous complex128 (B, H) ndarray, B >= 1, each
    frame longer than delay + taps, every part finite."""

    @pytest.mark.parametrize(
        "refused, named",
        [
            ("list", "got <class 'list'>"),
            ("float64", "(2, 64) float64"),
            ("fortran", "(2, 64) complex128, C-contiguous False"),
            ("column slice", "(2, 64) complex128, C-contiguous False"),
            ("1-D", "got (64,)"),
            ("3-D", "got (1, 2, 64)"),
            ("zero frames", "got (0, 64)"),
            ("delay + taps samples", "frame of length 6 too short for delay 1 and 5 taps"),
            (complex(np.nan, 0.0), "finite, got nan"),
            (complex(np.inf, 0.0), "finite, got inf"),
            (complex(-np.inf, 0.0), "finite, got -inf"),
            (complex(0.0, np.nan), "finite, got nan"),
            (complex(0.0, np.inf), "finite, got inf"),
            (complex(0.0, -np.inf), "finite, got -inf"),
        ],
        ids=[
            "list", "float64", "fortran", "column-slice", "1-D", "3-D", "zero-frames", "delay-plus-taps-samples",
            "nan", "inf", "-inf", "nan-imag", "inf-imag", "-inf-imag",
        ],
    )
    def test_refused_by_all_three(self, refused, named):
        """Each refuses the batch with the frame check's message, which names
        the refused shape, dtype, layout or value, and leaves it as it was."""
        D = _batch(refused)
        before = np.array(D).tobytes()
        messages = []
        for call in _KERNELS.values():
            with pytest.raises(ValueError) as refusal:
                call(D, ALE)
            messages.append(str(refusal.value))
        assert named in messages[0] and messages == messages[:1] * 3
        assert np.array(D).tobytes() == before

    def test_conforming_batch_accepted_by_all_three(self):
        for call in _KERNELS.values():
            call(_batch(), ALE)
