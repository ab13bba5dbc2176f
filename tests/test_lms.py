"""Tests for the sample-recursive gradient adaptation."""

import hashlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from alebench import lms
from alebench.ale import AleConfig
from alebench.channel import add_awgn
from alebench.lms import lms_batch
from alebench.signal import ModConfig, generate_bits, modulate
from oracles import loop_lms, real_least_squares_weights

ALE = AleConfig(taps=5, delay=1)
H = 10_000


def _awgn_frame(snr_db, bits_seed, noise_seed, h=H):
    x = modulate(generate_bits(h, bits_seed), ModConfig(m=2))
    return add_awgn(x, snr_db, noise_seed)


def _assert_rel(actual, expected, rel=1e-12):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


def _adapt(frames, mus, ale):
    """(final weights, residuals, crossing samples, peaks) of lms_batch run
    on a fresh C-ordered complex copy of `frames`, which it leaves as they
    were: the residuals are that copy, written over."""
    residuals = np.array(frames, dtype=np.complex128, order="C")
    weights, diverged_at, max_weight = lms_batch(residuals, mus, ale)
    return weights, residuals, diverged_at, max_weight


def _run_alone(d, mu, ale):
    """(final weights, residuals, crossing sample or -1, peak or 0.0) of
    frame d adapted in a one-lane batch."""
    (weights,), (e,), (diverged_at,), (max_weight,) = _adapt(d[None], [mu], ale)
    return weights, e, diverged_at, max_weight


def _assert_no_crossing(diverged_at, max_weight):
    np.testing.assert_array_equal(diverged_at, -1)
    np.testing.assert_array_equal(max_weight, 0.0)


def _plain_step(w, e_n, v, mu):
    """lms_batch's update of the weights w, oldest tap first, from the error
    e_n and the regressor v, written out: each tap's step is
    mu * (er*vr + ei*vi), in that order."""
    return w + mu * (e_n.real * v.real + e_n.imag * v.imag)


def _assert_matches_loop_oracle(d, taps, delay, mu):
    """Compare a one-lane lms_batch with loop_lms; returns which way the run
    ended."""
    ale = AleConfig(taps=taps, delay=delay)
    expected = loop_lms(d, taps, delay, mu)
    weights, e, diverged_at, max_weight = _run_alone(d, mu, ale)
    if isinstance(expected[0], int):
        index, peak = expected
        assert diverged_at == index
        assert max_weight == pytest.approx(peak, rel=1e-12)
        return "diverged"
    _assert_no_crossing(diverged_at, max_weight)
    _assert_rel(weights, expected[0])
    _assert_rel(e, d - expected[1])
    np.testing.assert_array_equal(e[: ale.warmup], d[: ale.warmup])
    return "converged"


class TestLmsRun:
    """One frame adapted alone, as a one-lane lms_batch."""

    def test_three_sample_hand_computation(self):
        """One tap, delay 1, mu = 0.1: sample 1 has error d[1] and regressor
        d[0], so w = 0.1 * Re(d[1] * conj(d[0])) = 0.1; sample 2's output
        0.1 * d[1] equals d[2], so its zero error leaves w at 0.1.  Sample
        0 is warm-up, its residual the sample."""
        frames = np.array([[1, 1, 0.1], [1j, 1j, 0.1j]])
        weights, e, *crossings = _adapt(frames, [0.1, 0.1], AleConfig(taps=1, delay=1))
        _assert_no_crossing(*crossings)
        np.testing.assert_array_equal(weights, [[0.1], [0.1]])
        np.testing.assert_array_equal(e, [[1, 1, 0], [1j, 1j, 0]])

    def test_zero_error_fixes_weights(self):
        """One tap, delay 1, mu = 1 on d[n] = a**n: sample 1 sets w = a, after
        which every output a * d[n-1] is d[n] exactly, so the zero errors
        leave w at a through every later block, and the residual is +0, as
        d - y is, not -0."""
        d = np.array([0.5, -0.5])[:, None] ** np.arange(200)
        weights, e, *crossings = _adapt(d, [1.0, 1.0], AleConfig(taps=1, delay=1))
        _assert_no_crossing(*crossings)
        np.testing.assert_array_equal(weights, [[0.5], [-0.5]])
        np.testing.assert_array_equal(e[:, :2], d[:, :2])
        assert e[:, 2:].tobytes() == bytes(e[:, 2:].nbytes)

    def test_zero_step_fixes_weights(self):
        """A mu = 0 lane keeps zero weights, its residual its frame, beside a
        lane of the same frame that adapts."""
        d = _awgn_frame(0.0, 41, 42, h=512)
        weights, e, *crossings = _adapt(np.stack([d, d]), [0.02, 0.0], ALE)
        _assert_no_crossing(*crossings)
        assert np.abs(weights[0]).max() > 0.0
        np.testing.assert_array_equal(weights[1], np.zeros(5))
        np.testing.assert_array_equal(e[1], d)

    def test_reproduces_a_plain_numpy_step(self):
        """A plain numpy update, stepped from zero weights over a frame with
        each output summed oldest tap first like the kernel, reproduces the
        kernel's residuals and final weights bit for bit."""
        d = _awgn_frame(0.0, 60, 70, h=300)
        for taps in range(1, 9):
            for delay in range(1, 4):
                ale = AleConfig(taps=taps, delay=delay)
                weights, e, *crossing = _run_alone(d, 0.02, ale)
                _assert_no_crossing(*crossing)
                w = np.zeros(taps)  # oldest tap first, like the window
                stepped = np.zeros_like(d)
                for n in range(ale.warmup, d.size):
                    v = d[n - ale.warmup : n - delay + 1]
                    stepped[n] = sum(w * v)
                    w = _plain_step(w, d[n] - stepped[n], v, 0.02)
                np.testing.assert_array_equal(d - stepped, e)
                np.testing.assert_array_equal(w[::-1], weights)

    def test_zero_step_never_adapts(self):
        d = _awgn_frame(0.0, 41, 42, h=512)
        weights, e, _, _ = _run_alone(d, 0.0, ALE)
        np.testing.assert_array_equal(weights, np.zeros(5))
        np.testing.assert_array_equal(e, d)

    def test_reconstruction_and_mse_trace(self):
        """The residual plus the explicit loop's output reconstructs the
        frame to the last rounding."""
        d = _awgn_frame(-2.0, 43, 44, h=2048)
        _, e, _, _ = _run_alone(d, 0.01, ALE)
        _, y = loop_lms(d, ALE.taps, ALE.delay, 0.01)
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
        weights, _, _, _ = _run_alone(d, 0.01, ALE)
        wiener = real_least_squares_weights(d, ALE.taps, ALE.delay)
        distance = np.linalg.norm(weights - wiener) / np.linalg.norm(wiener)
        assert distance < 0.10

    def test_oversized_step_diverges(self):
        d = _awgn_frame(0.0, 48, 49, h=4096)
        _, _, diverged_at, _ = _run_alone(d, 10.0, ALE)
        assert diverged_at >= ALE.warmup

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
        _, residuals, *crossings = _adapt(frames, np.full(20, 0.02), ALE)
        _assert_no_crossing(*crossings)
        firsts, lasts = [], []
        for e in residuals:
            body = np.abs(e[ALE.warmup :]) ** 2
            tenth = len(body) // 10
            firsts.append(np.mean(body[:tenth]))
            lasts.append(np.mean(body[-tenth:]))
        assert np.mean(lasts) < np.mean(firsts)


def _small_frames(count, h=300):
    return np.array([_awgn_frame(0.0, 60 + s, 70 + s, h=h) for s in range(count)])


def _assert_lane_is_run_alone(d, mu, ale, result, b):
    """Lane b of the lms_batch result is, bit for bit, the result of frame d
    adapted alone."""
    weights, e, diverged_at, max_weight = (part[b] for part in result)
    alone_weights, alone_e, alone_at, alone_peak = _run_alone(d, mu, ale)
    np.testing.assert_array_equal(diverged_at, alone_at)
    np.testing.assert_array_equal(max_weight, alone_peak)
    if alone_at >= 0:
        return "diverged"
    np.testing.assert_array_equal(weights, alone_weights)
    np.testing.assert_array_equal(e, alone_e)
    return "converged"


class TestLmsBatch:
    @pytest.mark.parametrize("lanes", [1, 7])
    def test_lanes_equal_lone_runs_exactly(self, lanes):
        frames = _small_frames(lanes)
        mus = [0.005, 0.01, 0.02, 0.04, 0.08, 0.0, 0.03][:lanes]
        for taps in range(1, 9):
            for delay in range(1, 4):
                ale = AleConfig(taps=taps, delay=delay)
                result = _adapt(frames, mus, ale)
                assert result[0].shape == (lanes, taps) and result[1].shape == frames.shape
                for lane in range(lanes):
                    assert _assert_lane_is_run_alone(frames[lane], mus[lane], ale, result, lane) == "converged"

    def test_diverging_lanes_match_lone_runs_and_spare_the_rest(self):
        """mu = 0.3 and mu = 10 lanes diverge at the sample and with the peak
        of the same frame run alone, and from there on hold zero weights, so
        that their residual is their frame; the converging lanes beside them
        stay bit-identical."""
        frames = np.array([_awgn_frame(-2.0, 80 + s, 90 + s, h=2000) for s in range(8)])
        mus = [0.01, 0.3, 0.08, 10.0, 0.2, 0.3, 0.02, 10.0]
        result = weights, e, diverged_at, _ = _adapt(frames, mus, ALE)
        ended = [_assert_lane_is_run_alone(frames[b], mus[b], ALE, result, b) for b in range(len(mus))]
        assert ended == ["diverged" if mu in (0.3, 10.0) else "converged" for mu in mus]
        assert len(set(diverged_at[diverged_at >= 0])) > 1
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(e))
        for b, n in enumerate(diverged_at):
            if n >= 0:
                assert np.all(weights[b] == 0) and np.all(e[b, n + 1 :] == frames[b, n + 1 :])

    def test_lane_result_independent_of_its_batch(self):
        frames = _small_frames(7)
        mus = np.array([0.01, 10.0, 0.08, 0.3, 0.02, 0.2, 0.005])
        ale = AleConfig(taps=7, delay=2)
        whole = _adapt(frames, mus, ale)
        for picked in ([3], [0, 2], [6, 1, 4, 3], [5, 5]):
            for part, full in zip(_adapt(frames[picked], mus[picked], ale), whole):
                np.testing.assert_array_equal(part, full[picked])

    def test_matches_loop_oracle(self):
        frames = _small_frames(6)
        mus = [0.005, 0.08, 0.2, 0.3, 10.0, 0.02]
        for taps in range(1, 9):
            for delay in range(1, 4):
                weights, e, diverged_at, max_weight = _adapt(frames, mus, AleConfig(taps=taps, delay=delay))
                for lane, mu in enumerate(mus):
                    expected = loop_lms(frames[lane], taps, delay, mu)
                    if isinstance(expected[0], int):
                        assert diverged_at[lane] == expected[0]
                        assert max_weight[lane] == pytest.approx(expected[1], rel=1e-12)
                        continue
                    _assert_no_crossing(diverged_at[lane], max_weight[lane])
                    _assert_rel(weights[lane], expected[0])
                    _assert_rel(e[lane], frames[lane] - expected[1])

    def test_operating_point_bits(self):
        """The benchmark's step-sweep operating point, pinned bit for bit:
        14 frames of 10,000 samples at -2 dB, the seven step sizes of the
        step_lms sweep twice.  The mu = 0.3 lanes diverge (at samples 208
        and 105), so the pin covers the mending of a lane that crosses and
        the zeroed lanes over a whole frame.  The digest covers the final
        weights' bytes, the residuals' bytes and every lane's crossing; it
        is the one that the frames less the outputs gave when the kernel
        returned outputs, so the residual is unchanged bit for bit."""
        frames = np.array([_awgn_frame(-2.0, 500 + s, 600 + s) for s in range(14)])
        mus = [0.005, 0.01, 0.02, 0.04, 0.08, 0.2, 0.3] * 2
        weights, e, diverged_at, max_weight = _adapt(frames, mus, ALE)
        assert list(diverged_at) == [-1] * 6 + [208] + [-1] * 6 + [105]
        crossings = [None if n < 0 else (int(n), float(peak)) for n, peak in zip(diverged_at, max_weight)]
        digest = hashlib.sha256(weights.tobytes() + e.tobytes() + repr(crossings).encode())
        assert digest.hexdigest() == (
            "7d7ff2e8b4ff81efbd4e1876fbca5c9fe492d25729ec587988a8724aee768be7")

    def test_residual_contract(self):
        """In one batch at the step_lms operating point: a warm-up sample's
        residual is the sample, a mu = 0 lane's residual is its frame, and
        a mu = 0.3 lane that diverges has its frame as its residual from the
        sample after its crossing on."""
        frames = np.array([_awgn_frame(-2.0, 500 + s, 600 + s) for s in (0, 1, 6)])
        _, e, diverged_at, _ = _adapt(frames, [0.02, 0.0, 0.3], ALE)
        assert list(diverged_at) == [-1, -1, 208]
        assert e[:, : ALE.warmup].tobytes() == frames[:, : ALE.warmup].tobytes()
        assert e[1].tobytes() == frames[1].tobytes()
        assert e[2, 209:].tobytes() == frames[2, 209:].tobytes()

    def test_bad_input_rejected(self):
        """Each rejection comes before any residual is written: the frames
        are left as they were, a non-finite sample among them too."""
        frames = _small_frames(2)
        before = frames.tobytes()
        with pytest.raises(ValueError, match="need"):
            lms_batch(frames, [0.01], ALE)
        for mus in ([0.01, -0.1], [0.01, np.inf], [0.01, np.nan]):
            with pytest.raises(ValueError, match="step sizes, finite and >= 0"):
                lms_batch(frames, mus, ALE)
        with pytest.raises(ValueError):
            lms_batch(frames[0], [0.01], ALE)
        with pytest.raises(ValueError):
            lms_batch(np.ones((2, 6), dtype=complex), [0.01, 0.01], ALE)
        assert frames.tobytes() == before
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            nonfinite = frames.copy()
            nonfinite[1, 100] = bad
            kept = nonfinite.tobytes()
            with pytest.raises(ValueError, match="frames must be finite"):
                lms_batch(nonfinite, [0.01, 0.01], ALE)
            assert nonfinite.tobytes() == kept

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
        _, _, probe, _ = _run_alone(burst_after(start), 10.0, ale)
        lag = probe - start  # from the burst to the crossing
        frames = np.array([
            recovers,
            *(burst_after(start + j - lag) for j in (64, 127, 270)),
            _awgn_frame(0.0, 62, 72, h=h), _awgn_frame(-2.0, 63, 73, h=h), burst,
        ])
        mus = [0.3, 10.0, 10.0, 10.0, 0.02, 0.08, 10.0]
        expected = _adapt(frames, mus, ale)
        offsets = [None if n < 0 else n - start for n in expected[2]]
        assert offsets[:6] == [47, 64, 127, 270, None, None] and offsets[6] < 64
        # Unchecked, the mu = 0.3 lane is back under the bound by the end of
        # the first 64-sample block: a check of the block's last weights
        # alone would miss its crossing.
        w, peaks = np.zeros(ale.taps), []
        for n in range(start, start + 64):
            v = recovers[n - start : n]
            w = _plain_step(w, recovers[n] - sum(w * v), v, 0.3)
            peaks.append(np.abs(w).max())
        assert peaks[47] > lms.WEIGHT_BOUND >= peaks[-1]
        for block in (2, 7, 64, h):
            monkeypatch.setattr(lms, "_BLOCK", block)
            for part, full in zip(_adapt(frames, mus, ale), expected):
                np.testing.assert_array_equal(part, full)
            # alone, so that no other lane's crossing makes its block checked
            for lane, mu in enumerate(mus):
                for part, full in zip(_run_alone(frames[lane], mu, ale), expected):
                    np.testing.assert_array_equal(part, full[lane])

    def test_lane_overflowing_unchecked_is_contained(self, monkeypatch):
        """A mu = 1e3 lane overflows to inf and nan before the one block of its
        frame is checked; no warning escapes, it diverges where it does run
        alone, and the other lanes are bit-identical to their lone runs."""
        frames = _small_frames(3)
        mus = [0.02, 1e3, 0.08]
        alone = [_run_alone(d, mu, ALE) for d, mu in zip(frames, mus)]
        monkeypatch.setattr(lms, "_BLOCK", frames.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, e, diverged_at, max_weight = _adapt(frames, mus, ALE)
        assert diverged_at[1] >= 0
        np.testing.assert_array_equal(diverged_at[1], alone[1][2])
        np.testing.assert_array_equal(max_weight[1], alone[1][3])
        for lane in (0, 2):
            assert diverged_at[lane] == -1 and np.all(np.isfinite(e[lane]))
            np.testing.assert_array_equal(weights[lane], alone[lane][0])
            np.testing.assert_array_equal(e[lane], alone[lane][1])

    def test_each_sample_adapted_once(self, monkeypatch):
        """The update of a sample, its one np.subtract call, is made once
        per adapted sample, h - warmup times, in a batch where a mu = 0.3
        lane crosses the bound mid-block, a 1e160 lane's products overflow
        again after it is zeroed, and a third lane converges: no block is
        adapted twice."""
        ale = AleConfig(taps=6, delay=1)
        frames = _small_frames(3)
        frames[1] *= 1e160
        calls = []

        def counted(*args):
            calls.append(None)
            return np.subtract(*args)

        monkeypatch.setattr(lms, "np", SimpleNamespace(**{**vars(np), "subtract": counted}))
        _, diverged_at, _ = lms_batch(frames, [0.3, 0.02, 0.02], ale)
        h, start = frames.shape[1], ale.warmup
        assert diverged_at[0] - start == 47  # mid-block, later blocks follow
        assert diverged_at[1] == start and diverged_at[2] == -1
        assert len(calls) == h - start

    def test_lane_overflowing_to_nan_reports_divergence(self):
        """A frame near 1e160 overflows the update's products, and their
        real-plus-imaginary sum inf - inf leaves nan weights: the lane is
        still reported as diverged and zeroed, and the lane beside it is
        bit-identical to its lone run."""
        frames = _small_frames(2)
        frames[1] *= 1e160
        weights, e, diverged_at, _ = _adapt(frames, [0.02, 0.02], ALE)
        assert diverged_at[1] == ALE.warmup
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(e))
        alone = _run_alone(frames[0], 0.02, ALE)
        assert diverged_at[0] == -1 and alone[2] == -1
        np.testing.assert_array_equal(weights[0], alone[0])
        np.testing.assert_array_equal(e[0], alone[1])

    @pytest.mark.parametrize("lanes, taps, delay, h", [
        (1, 5, 1, 300),
        (6, 16, 60, 400),  # the window reaches back 75 samples, past a block
        (4, 3, 119, 500),
        (9, 8, 40, 250),
    ])
    def test_in_place_matches_a_fresh_copy(self, lanes, taps, delay, h, monkeypatch):
        """Residuals written over the frames, 64 samples a block, are bit
        for bit those of a fresh copy of the same frames adapted as one
        block, which copies every frame sample before it writes any
        residual; so are the weights, crossings and peaks.  With lanes that
        cross the bound, a 1e160 lane whose products overflow, and windows
        that reach back more than one block."""
        rng = np.random.default_rng([lanes, taps, delay, h])
        frames = (rng.standard_normal((lanes, h)) + 1j * rng.standard_normal((lanes, h))) * 10.0 ** rng.uniform(-3, 3, (lanes, 1))
        frames[-1] *= 1e160
        mus = np.concatenate([[0.3, 10.0][:lanes], rng.uniform(0.0, 0.05, lanes)])[:lanes]
        ale = AleConfig(taps=taps, delay=delay)
        in_place = frames.copy()
        weights, diverged_at, max_weight = lms_batch(in_place, mus, ale)
        assert diverged_at[-1] >= 0
        monkeypatch.setattr(lms, "_BLOCK", h)
        expected = _adapt(frames, mus, ale)
        for part, full in zip((weights, in_place, diverged_at, max_weight), expected):
            assert part.tobytes() == full.tobytes()

    @pytest.mark.parametrize("bad", ["shape", "dtype", "order", "read-only", "list"])
    def test_bad_frames_rejected(self, bad):
        """Frames lms_batch cannot write the residuals over, a writeable
        C-contiguous complex128 (B, H) array, are rejected before any sample
        is adapted, and left as they were."""
        frames = _small_frames(2)
        D = {
            "shape": frames[None],  # (1, B, H)
            "dtype": frames.astype(np.complex64),
            "order": np.asfortranarray(frames),
            "read-only": frames.copy(),
            "list": frames.tolist(),
        }[bad]
        if bad == "read-only":
            D.flags.writeable = False
        before = np.array(D).tobytes()
        with pytest.raises(ValueError, match=r"need \(B, H\) frames, B >= 1, as a C-contiguous complex128|frames must be writeable"):
            lms_batch(D, [0.01, 0.01], ALE)
        assert np.array(D).tobytes() == before

    def test_memory_does_not_grow_with_the_frame(self):
        """Writing the residuals over the frames, lms_batch allocates no
        residual array: on 4 lanes of 50,000 samples its peak stays below
        one lane's frame bytes, and within 25 % of its peak at 5,000.  Nor
        does its frame check make a per-sample temporary: on 32 lanes, whose
        block buffers alone outweigh one lane's frame, the peak at 50,000
        samples is still within 25 % of that at 5,000."""
        def peak(h, lanes):
            frames = np.array([_awgn_frame(0.0, 60 + s, 70 + s, h=h) for s in range(lanes)])
            tracemalloc.start()
            try:
                lms_batch(frames, [0.01] * lanes, ALE)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        long_peak, short_peak = peak(50_000, 4), peak(5_000, 4)
        assert long_peak < 50_000 * 16
        assert long_peak <= 1.25 * short_peak
        assert peak(50_000, 32) <= 1.25 * peak(5_000, 32)
