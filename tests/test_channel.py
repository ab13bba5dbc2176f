"""Tests for AWGN calibration and the nonlinear impairment model."""

import math

import numpy as np
import pytest

from alebench.channel import (
    DEFAULT_PROFILES,
    SNR_LIMIT_DB,
    NonlinearProfile,
    add_awgn,
    apply_nonlinear,
)
from alebench.signal import ModConfig, generate_bits, modulate

BIG = 1_000_000


@pytest.fixture(scope="module")
def long_symbols():
    return modulate(generate_bits(BIG, seed=11), ModConfig(m=2))


class TestAddAwgn:
    def test_unit_power_zero_db_variance(self, long_symbols):
        noise = add_awgn(long_symbols, snr_db=0.0, seed=12) - long_symbols
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.02

    def test_empirical_snr_within_tenth_db(self, long_symbols):
        noise = add_awgn(long_symbols, snr_db=30.0, seed=13) - long_symbols
        measured = 10 * np.log10(
            np.mean(np.abs(long_symbols) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert abs(measured - 30.0) < 0.1

    def test_noise_parts_balanced_and_uncorrelated(self, long_symbols):
        noise = add_awgn(long_symbols, snr_db=0.0, seed=14) - long_symbols
        assert abs(np.var(noise.real) - 0.5) < 0.015
        assert abs(np.var(noise.imag) - 0.5) < 0.015
        corr = np.corrcoef(noise.real, noise.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_deterministic_per_seed(self):
        x = modulate(generate_bits(256, seed=15), ModConfig(m=2))
        a = add_awgn(x, snr_db=5.0, seed=99)
        b = add_awgn(x, snr_db=5.0, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(16, dtype=complex), snr_db=0.0, seed=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.array([]), snr_db=0.0, seed=1)

    @pytest.mark.parametrize("shape", [(2, 16), (1, 16), ()], ids=["stack", "one-frame stack", "0-d"])
    def test_input_that_is_not_1d_rejected(self, shape):
        """A stack of frames would get one power and one noise stream."""
        with pytest.raises(ValueError, match="1-D"):
            add_awgn(np.ones(shape, dtype=complex), snr_db=0.0, seed=1)

    def test_snr_calibrated_to_distorted_frame(self):
        x = modulate(generate_bits(BIG // 4, seed=20), ModConfig(m=2))
        distorted = apply_nonlinear(x, DEFAULT_PROFILES["2.4GHz"])
        noise = add_awgn(distorted, 6.0, 21) - distorted
        measured = 10 * np.log10(
            np.mean(np.abs(distorted) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert abs(measured - 6.0) < 0.1

    def test_non_finite_input_rejected_as_input_power(self):
        """A non-finite sample leaves the input power nan or inf: rejected as
        such at any SNR, inf included, not blamed on the SNR."""
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            for snr_db in (10.0, math.inf):
                with pytest.raises(ValueError, match="input stream power must be finite"):
                    add_awgn(np.array([1.0, bad]), snr_db, 0)


class TestApplyNonlinear:
    def test_identity_profile_bit_exact(self):
        x = modulate(generate_bits(64, seed=16), ModConfig(m=2))
        y = apply_nonlinear(x, NonlinearProfile())
        np.testing.assert_array_equal(y, x)

    def test_cubic_term_on_unit_sample(self):
        y = apply_nonlinear(np.ones(8, dtype=complex), NonlinearProfile(cubic_gain=0.1))
        np.testing.assert_allclose(y, 1.1, atol=1e-15)

    def test_single_tone_on_zero_signal(self):
        prof = NonlinearProfile(tones=((0.5, 0.01, 0.0),))
        y = apply_nonlinear(np.zeros(16, dtype=complex), prof)
        n = np.arange(16)
        np.testing.assert_allclose(y, 0.5 * np.exp(2j * np.pi * 0.01 * n), atol=1e-15)

    def test_tone_shows_at_its_frequency(self):
        """The added spectrum peaks in the bin the tone was placed in."""
        h = 4096
        freq = 0.05
        x = modulate(generate_bits(h, seed=17), ModConfig(m=2))
        y = apply_nonlinear(x, NonlinearProfile(tones=((0.4, freq, 1.0),)))
        spectrum = np.abs(np.fft.fft(y - x))
        assert np.argmax(spectrum) == round(freq * h)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("name", list(DEFAULT_PROFILES))
    def test_cubic_term_is_a_gain_on_psk(self, name, m):
        """Every PSK point has |x| = 1, so x + g x |x|^2 is (1 + g) x: each
        default profile is a gain plus its tones, which are summed here
        from cos and sin, not by the library's formula."""
        profile = DEFAULT_PROFILES[name]
        mod = ModConfig(m=m)
        x = modulate(generate_bits(10_000 * mod.bits_per_symbol, seed=31), mod)
        n = np.arange(x.size)
        tones = sum(
            amp * (np.cos(2 * np.pi * freq * n + phase) + 1j * np.sin(2 * np.pi * freq * n + phase))
            for amp, freq, phase in profile.tones
        )
        expected = (1.0 + profile.cubic_gain) * x + tones
        assert np.max(np.abs(apply_nonlinear(x, profile) - expected)) <= 1e-15

    def test_profile_noise_offsets(self):
        """Noise is calibrated to the distorted frame's power, (1 + a3)^2
        plus the tones' A^2, so at a nominal SNR a profile's symbols see
        more noise than AWGN's by the ratio of that power to (1 + a3)^2:
        the offsets README gives."""
        offsets = {
            name: 10.0 * math.log10(
                ((1.0 + p.cubic_gain) ** 2 + sum(amp**2 for amp, _, _ in p.tones)) / (1.0 + p.cubic_gain) ** 2
            )
            for name, p in DEFAULT_PROFILES.items()
        }
        assert offsets == pytest.approx({"60MHz": 1.23, "2.4GHz": 1.08, "5.8GHz": 1.74}, abs=0.005)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NonlinearProfile(cubic_gain=-0.1)
        with pytest.raises(ValueError):
            NonlinearProfile(tones=((0.5, 0.6, 0.0),))
        with pytest.raises(ValueError):
            NonlinearProfile(tones=((-1.0, 0.1, 0.0),))

    def test_non_finite_tone_phase_rejected(self):
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tone phase must be finite"):
                NonlinearProfile(tones=((0.5, 0.1, phase),))


    @pytest.mark.parametrize("name", ["identity", *DEFAULT_PROFILES])
    def test_stacked_frames_match_each_frame_alone(self, name):
        """Frames along the last axis are distorted as if one at a time, bit
        for bit: each frame's tones start at its own first sample."""
        profile = DEFAULT_PROFILES.get(name, NonlinearProfile())
        rng = np.random.default_rng(26)
        frames = rng.normal(size=(6, 301)) + 1j * rng.normal(size=(6, 301))
        alone = np.array([apply_nonlinear(frame, profile) for frame in frames])
        np.testing.assert_array_equal(apply_nonlinear(frames, profile), alone)
        stacked = apply_nonlinear(frames.reshape(2, 3, 301), profile)
        np.testing.assert_array_equal(stacked, alone.reshape(2, 3, 301))


class TestDistortedNoisyFrame:
    def test_invalid_snr_rejected(self):
        """An SNR whose noise variance is no finite positive number: nan,
        -inf, 10^400 overflowing, 10^-400 underflowing to 0, and 10^-310
        leaving power / 10^-310 infinite."""
        x = modulate(generate_bits(64, seed=22), ModConfig(m=2))
        for snr_db in (math.nan, -math.inf, 4000.0, -4000.0, -3100.0):
            with pytest.raises(ValueError, match="noise variance"):
                add_awgn(x, snr_db, 1)
            with pytest.raises(ValueError, match="noise variance"):
                add_awgn(apply_nonlinear(x, DEFAULT_PROFILES["5.8GHz"]), snr_db, 1)

    def test_snr_limit_accepted_for_every_profile(self):
        x = modulate(generate_bits(4096, seed=23), ModConfig(m=2))
        for prof in (NonlinearProfile(), *DEFAULT_PROFILES.values()):
            for snr_db in (-SNR_LIMIT_DB, SNR_LIMIT_DB):
                assert np.all(np.isfinite(add_awgn(apply_nonlinear(x, prof), snr_db, 24)))

    def test_infinite_snr_returns_a_copy(self):
        x = modulate(generate_bits(32, seed=25), ModConfig(m=2))
        y = add_awgn(x, math.inf, 1)
        np.testing.assert_array_equal(y, x)
        assert not np.shares_memory(y, x)

    def test_golden_frame(self):
        """Frozen output of an audited run: cubic 0.1 plus one tone at 0.05,
        3 dB SNR, seed 424242, BPSK input [1,-1,-1,1,1,1,-1,1]."""
        x = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=np.complex128)
        prof = NonlinearProfile(cubic_gain=0.1, tones=((0.5, 0.05, 0.25),))
        d = add_awgn(apply_nonlinear(x, prof), 3.0, 424242)
        golden = np.array(
            [
                0.027318533445486626 - 0.9765417840399341j,
                -0.31956231001264207 + 1.095363032436342j,
                -0.2986305136618546 + 0.9038265110276001j,
                1.2989499685999661 + 0.07381560947238264j,
                1.0468613105939775 + 1.0305304786184764j,
                0.6262060026311326 + 0.3102866059248862j,
                -0.38474053639218797 - 0.10681946191056707j,
                0.03767179423189404 - 0.41587310251600484j,
            ]
        )
        np.testing.assert_array_equal(d, golden)
