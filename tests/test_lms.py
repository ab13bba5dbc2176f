"""Tests for the sample-recursive gradient adaptation."""

import warnings

import numpy as np
import pytest

from alebench import lms
from alebench.ale import AleConfig
from alebench.channel import ChannelConfig, transmit
from alebench.errors import DivergenceError
from alebench.lms import lms_batch, lms_step
from alebench.signal import ModConfig, generate_bits, modulate
from oracles import loop_lms, real_least_squares_weights, squared_error_gradient_fd

ALE = AleConfig(taps=5, delay=1)
H = 10_000


def _awgn_frame(snr_db, bits_seed, noise_seed, h=H):
    x = modulate(generate_bits(h, bits_seed), ModConfig(m=2))
    return transmit(x, ChannelConfig(snr_db=snr_db, seed=noise_seed))


def _assert_rel(actual, expected, rel=1e-12):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


def _run_alone(d, mu, ale):
    """(final weights, outputs, DivergenceError or None) of frame d adapted
    in a one-lane batch."""
    (weights,), (y,), (err,) = lms_batch(d[None], [mu], ale)
    return weights, y, err


def _assert_matches_loop_oracle(d, taps, delay, mu):
    """Compare a one-lane lms_batch with loop_lms; returns which way the run
    ended."""
    ale = AleConfig(taps=taps, delay=delay)
    expected = loop_lms(d, taps, delay, mu)
    weights, y, err = _run_alone(d, mu, ale)
    if isinstance(expected[0], int):
        index, peak = expected
        assert isinstance(err, DivergenceError)
        assert err.sample_index == index
        assert err.max_weight == pytest.approx(peak, rel=1e-12)
        return "diverged"
    assert err is None
    _assert_rel(weights, expected[0])
    _assert_rel(y, expected[1])
    _assert_rel(d - y, d - expected[1])
    np.testing.assert_array_equal(y[: ale.warmup], 0.0)
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
        for mu in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="step sizes must be finite and >= 0"):
                lms_step(np.array([0.1, 0.2]), 1 + 1j, np.array([1.0, 2.0]), mu)

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

    def test_reproduces_the_batched_kernel(self):
        """lms_step makes lms_batch's update: stepped from zero weights over
        a frame, with each output summed oldest tap first like the kernel,
        it reproduces the kernel's outputs and final weights bit for bit."""
        d = _awgn_frame(0.0, 60, 70, h=300)
        for taps in range(1, 9):
            for delay in range(1, 4):
                ale = AleConfig(taps=taps, delay=delay)
                weights, y, err = _run_alone(d, 0.02, ale)
                assert err is None
                w = np.zeros(taps)  # oldest tap first, like the window
                stepped = np.zeros_like(d)
                for n in range(ale.warmup, d.size):
                    v = d[n - ale.warmup : n - delay + 1]
                    stepped[n] = sum(w * v)
                    w = lms_step(w, d[n] - stepped[n], v, 0.02)
                np.testing.assert_array_equal(stepped, y)
                np.testing.assert_array_equal(w[::-1], weights)


class TestLmsRun:
    """One frame adapted alone, as a one-lane lms_batch."""

    def test_zero_step_never_adapts(self):
        d = _awgn_frame(0.0, 41, 42, h=512)
        weights, y, _ = _run_alone(d, 0.0, ALE)
        np.testing.assert_array_equal(weights, np.zeros(5))
        np.testing.assert_array_equal(d - y, d)

    def test_reconstruction_and_mse_trace(self):
        d = _awgn_frame(-2.0, 43, 44, h=2048)
        _, y, _ = _run_alone(d, 0.01, ALE)
        e = d - y
        np.testing.assert_allclose(e + y, d, rtol=0, atol=1e-14)

    def test_deterministic(self):
        d = _awgn_frame(0.0, 45, 46, h=1024)
        a = _run_alone(d, 0.02, ALE)
        b = _run_alone(d, 0.02, ALE)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_tracks_least_squares_solution_on_sinusoid(self):
        """On a predictable (narrowband) frame the adapted weights settle
        near the real-constrained least-squares solution."""
        rng = np.random.default_rng(47)
        n = np.arange(H)
        tone = np.exp(1j * (2 * np.pi * 0.04 * n + 0.7))
        noise = np.sqrt(0.25 / 2) * (rng.standard_normal(H) + 1j * rng.standard_normal(H))
        d = tone + noise
        weights, _, _ = _run_alone(d, 0.01, ALE)
        wiener = real_least_squares_weights(d, ALE.taps, ALE.delay)
        distance = np.linalg.norm(weights - wiener) / np.linalg.norm(wiener)
        assert distance < 0.10

    def test_oversized_step_diverges(self):
        d = _awgn_frame(0.0, 48, 49, h=4096)
        _, _, err = _run_alone(d, 10.0, ALE)
        assert isinstance(err, DivergenceError)
        assert err.sample_index >= ALE.warmup

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            _run_alone(np.ones(6, dtype=complex), 0.01, ALE)

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
        frames = np.array([_awgn_frame(-2.0, s, 10_000 + s) for s in range(20)])
        _, outputs, errors = lms_batch(frames, np.full(20, 0.02), ALE)
        assert errors == [None] * 20
        firsts, lasts = [], []
        for d, y in zip(frames, outputs):
            body = np.abs((d - y)[ALE.warmup :]) ** 2
            tenth = len(body) // 10
            firsts.append(np.mean(body[:tenth]))
            lasts.append(np.mean(body[-tenth:]))
        assert np.mean(lasts) < np.mean(firsts)


def _small_frames(count, h=300):
    return np.array([_awgn_frame(0.0, 60 + s, 70 + s, h=h) for s in range(count)])


def _crossing(err):
    return None if err is None else (err.sample_index, err.max_weight)


def _assert_lane_is_run_alone(d, mu, ale, weights, y, err):
    """Lane (weights, y, err) of lms_batch is, bit for bit, the result of
    frame d adapted alone."""
    alone_weights, alone_y, expected = _run_alone(d, mu, ale)
    if expected is not None:
        assert err is not None
        assert err.sample_index == expected.sample_index
        assert err.max_weight == expected.max_weight
        return "diverged"
    assert err is None
    np.testing.assert_array_equal(weights, alone_weights)
    np.testing.assert_array_equal(y, alone_y)
    return "converged"


class TestLmsBatch:
    @pytest.mark.parametrize("lanes", [1, 7])
    def test_lanes_equal_lone_runs_exactly(self, lanes):
        frames = _small_frames(lanes)
        mus = [0.005, 0.01, 0.02, 0.04, 0.08, 0.0, 0.03][:lanes]
        for taps in range(1, 9):
            for delay in range(1, 4):
                ale = AleConfig(taps=taps, delay=delay)
                weights, y, errors = lms_batch(frames, mus, ale)
                assert weights.shape == (lanes, taps) and y.shape == frames.shape
                for lane in range(lanes):
                    ended = _assert_lane_is_run_alone(
                        frames[lane], mus[lane], ale, weights[lane], y[lane], errors[lane])
                    assert ended == "converged"

    def test_diverging_lanes_match_lone_runs_and_spare_the_rest(self):
        """mu = 0.3 and mu = 10 lanes diverge at the sample and with the peak
        of the same frame run alone; the converging lanes beside them stay
        bit-identical."""
        frames = np.array([_awgn_frame(-2.0, 80 + s, 90 + s, h=2000) for s in range(8)])
        mus = [0.01, 0.3, 0.08, 10.0, 0.2, 0.3, 0.02, 10.0]
        weights, y, errors = lms_batch(frames, mus, ALE)
        ended = [
            _assert_lane_is_run_alone(frames[b], mus[b], ALE, weights[b], y[b], errors[b])
            for b in range(len(mus))
        ]
        assert ended == ["diverged" if mu in (0.3, 10.0) else "converged" for mu in mus]
        assert len({err.sample_index for err in errors if err is not None}) > 1
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(y))

    def test_lane_result_independent_of_its_batch(self):
        frames = _small_frames(7)
        mus = np.array([0.01, 10.0, 0.08, 0.3, 0.02, 0.2, 0.005])
        ale = AleConfig(taps=7, delay=2)
        weights, y, errors = lms_batch(frames, mus, ale)
        for picked in ([3], [0, 2], [6, 1, 4, 3], [5, 5]):
            sub_weights, sub_y, sub_errors = lms_batch(frames[picked], mus[picked], ale)
            for i, lane in enumerate(picked):
                np.testing.assert_array_equal(sub_weights[i], weights[lane])
                np.testing.assert_array_equal(sub_y[i], y[lane])
                assert str(sub_errors[i]) == str(errors[lane])

    def test_matches_loop_oracle(self):
        frames = _small_frames(6)
        mus = [0.005, 0.08, 0.2, 0.3, 10.0, 0.02]
        for taps in range(1, 9):
            for delay in range(1, 4):
                weights, y, errors = lms_batch(frames, mus, AleConfig(taps=taps, delay=delay))
                for lane, mu in enumerate(mus):
                    expected = loop_lms(frames[lane], taps, delay, mu)
                    if isinstance(expected[0], int):
                        assert errors[lane].sample_index == expected[0]
                        assert errors[lane].max_weight == pytest.approx(expected[1], rel=1e-12)
                        continue
                    assert errors[lane] is None
                    _assert_rel(weights[lane], expected[0])
                    _assert_rel(y[lane], expected[1])

    def test_bad_input_rejected(self):
        frames = _small_frames(2)
        for mus in ([0.01], [0.01, -0.1], [0.01, np.inf], [0.01, np.nan]):
            with pytest.raises(ValueError):
                lms_batch(frames, mus, ALE)
        with pytest.raises(ValueError):
            lms_batch(frames[0], [0.01], ALE)
        with pytest.raises(ValueError):
            lms_batch(np.ones((2, 6), dtype=complex), [0.01, 0.01], ALE)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            nonfinite = frames.copy()
            nonfinite[1, 100] = bad
            with pytest.raises(ValueError):
                lms_batch(nonfinite, [0.01, 0.01], ALE)

    def test_block_size_changes_nothing(self, monkeypatch):
        """Weights, outputs and divergence sample and peak are the same bit
        for bit whatever the block between two divergence checks, with lanes
        crossing the bound in the first block, at the first and the last
        sample of a block, in a last, partial block, and mid-block with the
        weights back under the bound by the block's end."""
        h, ale = 300, AleConfig(taps=6, delay=1)
        start = ale.warmup
        recovers = _awgn_frame(0.0, 60, 70, h=h)
        burst = _awgn_frame(0.0, 61, 71, h=h)

        def burst_after(silent):  # zeros leave the weights at 0 until the burst
            return np.concatenate([np.zeros(silent, dtype=complex), burst])[:h]

        monkeypatch.setattr(lms, "_BLOCK", 1)  # a check after every sample
        (_, _, (probe,)) = lms_batch(burst_after(start)[None], [10.0], ale)
        lag = probe.sample_index - start  # from the burst to the crossing
        frames = np.array([
            recovers,
            *(burst_after(start + j - lag) for j in (64, 127, 270)),
            _awgn_frame(0.0, 62, 72, h=h), _awgn_frame(-2.0, 63, 73, h=h), burst,
        ])
        mus = [0.3, 10.0, 10.0, 10.0, 0.02, 0.08, 10.0]
        expected = lms_batch(frames, mus, ale)
        offsets = [None if err is None else err.sample_index - start for err in expected[2]]
        assert offsets[:6] == [47, 64, 127, 270, None, None] and offsets[6] < 64
        # Unchecked, the mu = 0.3 lane is back under the bound by the end of
        # the first 64-sample block: a check of the block's last weights
        # alone would miss its crossing.
        w, peaks = np.zeros(ale.taps), []
        for n in range(start, start + 64):
            v = recovers[n - start : n]
            w = lms_step(w, recovers[n] - sum(w * v), v, 0.3)
            peaks.append(np.abs(w).max())
        assert peaks[47] > lms.WEIGHT_BOUND >= peaks[-1]
        for block in (2, 7, 64, h):
            monkeypatch.setattr(lms, "_BLOCK", block)
            weights, y, errors = lms_batch(frames, mus, ale)
            np.testing.assert_array_equal(weights, expected[0])
            np.testing.assert_array_equal(y, expected[1])
            assert list(map(_crossing, errors)) == list(map(_crossing, expected[2]))
            # alone, so that no other lane's crossing makes its block checked
            for lane, mu in enumerate(mus):
                alone = _run_alone(frames[lane], mu, ale)
                np.testing.assert_array_equal(alone[0], expected[0][lane])
                np.testing.assert_array_equal(alone[1], expected[1][lane])
                assert _crossing(alone[2]) == _crossing(expected[2][lane])

    def test_lane_overflowing_unchecked_is_contained(self, monkeypatch):
        """A mu = 1e3 lane overflows to inf and nan in the unchecked pass of a
        one-block frame; no warning escapes, it diverges where it does run
        alone, and the other lanes are bit-identical to their lone runs."""
        frames = _small_frames(3)
        mus = [0.02, 1e3, 0.08]
        alone = [_run_alone(d, mu, ALE) for d, mu in zip(frames, mus)]
        monkeypatch.setattr(lms, "_BLOCK", frames.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, y, errors = lms_batch(frames, mus, ALE)
        assert errors[1] is not None
        assert _crossing(errors[1]) == _crossing(alone[1][2])
        for lane in (0, 2):
            assert errors[lane] is None and np.all(np.isfinite(y[lane]))
            np.testing.assert_array_equal(weights[lane], alone[lane][0])
            np.testing.assert_array_equal(y[lane], alone[lane][1])

    def test_lane_overflowing_to_nan_reports_divergence(self):
        """A frame near 1e160 overflows the update's products, and their
        real-plus-imaginary sum inf - inf leaves nan weights: the lane is
        still reported as diverged and zeroed, and the lane beside it is
        bit-identical to its lone run."""
        frames = _small_frames(2)
        frames[1] *= 1e160
        weights, y, errors = lms_batch(frames, [0.02, 0.02], ALE)
        assert isinstance(errors[1], DivergenceError)
        assert errors[1].sample_index == ALE.warmup
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(y))
        alone = _run_alone(frames[0], 0.02, ALE)
        assert errors[0] is None and alone[2] is None
        np.testing.assert_array_equal(weights[0], alone[0])
        np.testing.assert_array_equal(y[0], alone[1])
