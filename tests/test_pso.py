"""Tests for the swarm search over enhancer weights."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alebench import pso
from alebench.ale import AleConfig, _residual
from alebench.channel import DEFAULT_PROFILES, add_awgn, apply_nonlinear
from alebench.lms import lms_batch
from alebench.pso import (
    GRAM_FALLBACK_RATIO,
    MAX_PARTICLES,
    PsoConfig,
    _gram,
    _scores,
    pso_batch,
)
from alebench.signal import ModConfig, generate_bits, modulate
from costs import swarm_cost
from oracles import brute_force_cost, loop_pso, real_least_squares_weights, wiener_floor

ALE = AleConfig(taps=5, delay=1)


def _awgn_frame(snr_db, bits_seed, noise_seed, h):
    x = modulate(generate_bits(h, bits_seed), ModConfig(m=2))
    return add_awgn(x, snr_db, noise_seed)


def _random_frame(rng, h):
    return rng.normal(size=h) + 1j * rng.normal(size=h)


class TestSwarmCost:
    def test_zero_frame_has_zero_cost(self):
        assert swarm_cost(np.ones(5), np.zeros(64, dtype=complex), ALE) == 0.0

    def test_hand_computed_two_tap_case(self):
        cfg = AleConfig(taps=2, delay=1)
        assert swarm_cost([0.5, 0.5], np.array([1.0, 2.0, 3.0, 4.0]), cfg) == pytest.approx(2.25)

    def test_never_negative(self):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            taps = int(rng.integers(1, 6))
            h = int(rng.integers(taps + 3, 40))
            cfg = AleConfig(taps=taps, delay=1)
            cost = swarm_cost(rng.normal(size=taps), _random_frame(rng, h), cfg)
            assert cost >= 0.0

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            taps = int(rng.integers(1, 9))
            delay = int(rng.integers(1, 4))
            h = int(rng.integers(taps + delay + 2, 64))
            cfg = AleConfig(taps=taps, delay=delay)
            w = rng.normal(size=taps)
            d = _random_frame(rng, h)
            fast = swarm_cost(w, d, cfg)
            slow = brute_force_cost(w, d, taps, delay)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_direct_fallback_on_exactly_predictable_frame(self):
        """A real cosine obeys d[n] = 2cos(w) d[n-1] - d[n-2], so its residual
        at w* is rounding noise and the quadratic form cancels to nothing."""
        for omega in (0.3, 0.7, 1.3):
            d = np.cos(omega * np.arange(64)).astype(complex)
            w = np.array([2.0 * np.cos(omega), -1.0, 0.0, 0.0, 0.0])
            c = np.mean(np.abs(d[ALE.warmup :]) ** 2)
            cost = swarm_cost(w, d, ALE)
            slow = brute_force_cost(w, d, ALE.taps, ALE.delay)
            assert abs(cost - slow) <= 1e-12 * c
            # the direct sum keeps relative accuracy the Gram form cannot
            assert cost == pytest.approx(slow, rel=1e-9, abs=0.0)


def test_scores_peak_is_two_product_arrays():
    """_scores holds its (L, L, P) float64 products and their particles-first
    copy at once; pso.MAX_PARTICLES and ale.MAX_TAPS are sized by that peak."""
    b, taps, n = 8, 16, 64
    ale = AleConfig(taps=taps, delay=1)
    rng = np.random.default_rng(62)
    frames = np.array([_random_frame(rng, 64) for _ in range(b)])
    R, p, c = _gram(frames, ale)
    w = rng.uniform(-2.0, 2.0, size=(taps, b * n))
    lane = np.repeat(np.arange(b), n)
    tracemalloc.start()
    try:
        _scores(w, R, p, c, frames, lane, ale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    products = b * taps * taps * n * 8
    assert 2 * products <= peak <= 2.25 * products


def _first_draw(cfg, seed, taps):
    """The (N, taps) starting positions pso_batch draws for `cfg` from `seed`,
    in the box pso.INIT_RANGE holds when called."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-pso.INIT_RANGE, pso.INIT_RANGE, size=(cfg.n_particles, taps))


def _patch_constants(monkeypatch, overrides):
    """Patch the upper-case names in `overrides`, the update rule's
    constants in alebench.pso; the rest are PsoConfig fields, returned."""
    for name, value in overrides.items():
        if name.isupper():
            monkeypatch.setattr(pso, name, value)
    return {name: value for name, value in overrides.items() if not name.isupper()}


def _search(d, seed, cfg, ale):
    """A one-lane pso_batch of frame d: its weights, its history, and the
    (N, taps) positions it scored, the start first, then one per iteration."""
    score, scored = pso._scores, []

    def spy(w, *args):
        scored.append(w.T.copy())
        return score(w, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pso, "_scores", spy)
        (weights,), (history,) = pso_batch(d[None], [seed], cfg, ale)
    return weights, history, np.array(scored)


def _first_move(d, seed, cfg, ale):
    """The positions a swarm at rest on its personal bests moves to in one
    iteration: only the global pull C2*r2*(gbest - x) acts, clamped."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-pso.INIT_RANGE, pso.INIT_RANGE, size=(cfg.n_particles, ale.taps))
    r2 = rng.uniform(size=(cfg.n_particles, 2, 1))[:, 1]
    gbest = x[np.argmin([swarm_cost(w, d, ale) for w in x])]
    return x + np.clip(pso.C2 * r2 * (gbest - x), -pso.V_MAX, pso.V_MAX)


class TestPsoConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(n_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(tol=-1.0)


class TestInitSwarm:
    """The swarm a search starts from, seen through a one-lane pso_batch."""

    def test_velocities_start_at_zero(self, monkeypatch):
        # a particle starts on its personal best, so without the global pull
        # it moves exactly when its starting velocity is not zero
        d = _awgn_frame(0.0, 62, 63, h=128)
        cfg = PsoConfig(n_particles=12, max_iters=1, tol=0.0)
        *_, a = _search(d, 62, cfg, ALE)
        _patch_constants(monkeypatch, {"C2": 0.0})
        *_, b = _search(d, 62, cfg, ALE)
        np.testing.assert_array_equal(b[1], b[0])
        np.testing.assert_array_equal(b[0], a[0])
        assert np.any(a[1] != a[0])

    def test_positions_within_init_range(self, monkeypatch):
        _patch_constants(monkeypatch, {"INIT_RANGE": 1.5, "C1": 0.0, "C2": 0.0})
        cfg = PsoConfig(n_particles=40, max_iters=1, tol=0.0)
        *_, scored = _search(_awgn_frame(0.0, 63, 64, h=128), 63, cfg, AleConfig(taps=4, delay=1))
        assert scored[0].shape == (40, 4)
        assert np.all(np.abs(scored[0]) <= 1.5)
        np.testing.assert_array_equal(scored[0], _first_draw(cfg, 63, 4))

    def test_single_particle_is_global_best(self):
        # a lone particle's global best is its personal best, the cheapest
        # position it has scored so far
        d, ale = _awgn_frame(0.0, 64, 65, h=128), AleConfig(taps=3, delay=1)
        cfg = PsoConfig(n_particles=1, max_iters=5, tol=0.0)
        weights, history, scored = _search(d, 64, cfg, ale)
        costs = [swarm_cost(w, d, ale) for (w,) in scored]
        assert history == np.minimum.accumulate(costs)[1:].tolist()
        np.testing.assert_array_equal(weights, scored[np.argmin(costs), 0])

    def test_same_seed_same_swarm(self):
        d = _awgn_frame(0.0, 65, 66, h=128)
        cfg = PsoConfig(n_particles=8, max_iters=3)
        (wa, ha, a), (wb, hb, b), (*_, c) = (_search(d, s, cfg, ALE) for s in (65, 65, 66))
        np.testing.assert_array_equal(wa, wb)
        assert ha == hb
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_global_best_is_cheapest_initial_cost(self, monkeypatch):
        _patch_constants(monkeypatch, {"C1": 0.0, "C2": 0.0})
        d = _awgn_frame(0.0, 66, 67, h=128)
        cfg = PsoConfig(n_particles=16, max_iters=1, tol=0.0)
        weights, histories = pso_batch(d[None], [66], cfg, ALE)
        start = _first_draw(cfg, 66, ALE.taps)
        start_costs = np.array([swarm_cost(w, d, ALE) for w in start])
        assert histories == [[start_costs.min()]]
        np.testing.assert_array_equal(weights[0], start[np.argmin(start_costs)])


class TestVelocityAndPosition:
    """The move v' = v + C1*r1*(pbest - x) + C2*r2*(gbest - x), clamped,
    then x' = x + v', seen in the positions a one-lane pso_batch scores."""

    def test_no_pull_when_everything_coincides(self):
        # a lone particle is its own personal and global best
        cfg = PsoConfig(n_particles=1, max_iters=5, tol=0.0)
        *_, scored = _search(_awgn_frame(0.0, 67, 68, h=128), 67, cfg, ALE)
        assert len(scored) == cfg.max_iters + 1
        np.testing.assert_array_equal(scored, np.broadcast_to(_first_draw(cfg, 67, ALE.taps), scored.shape))

    def test_scalar_hand_case(self, monkeypatch):
        _patch_constants(monkeypatch, {"C1": 1.0, "C2": 1.0, "V_MAX": 2.0})
        d = _awgn_frame(0.0, 68, 69, h=128)
        ale = AleConfig(taps=1, delay=1)
        cfg = PsoConfig(n_particles=2, max_iters=1, tol=0.0)
        *_, scored = _search(d, 68, cfg, ale)
        rng = np.random.default_rng(68)
        x = rng.uniform(-pso.INIT_RANGE, pso.INIT_RANGE, size=(2, 1))
        r2 = rng.uniform(size=(2, 2, 1))[:, 1]
        gbest = x[np.argmin(np.array([swarm_cost(w, d, ale) for w in x]))]
        # the swarm is at rest on its personal bests: only the global pull acts
        v = np.clip(r2 * (gbest - x), -2.0, 2.0)
        np.testing.assert_array_equal(scored[1], x + v)

    def test_zero_coefficients_keep_old_velocity(self, monkeypatch):
        _patch_constants(monkeypatch, {"C1": 0.0, "C2": 0.0})
        cfg = PsoConfig(n_particles=6, max_iters=5, tol=0.0)
        *_, scored = _search(_awgn_frame(0.0, 69, 70, h=128), 69, cfg, ALE)
        assert len(scored) == cfg.max_iters + 1
        np.testing.assert_array_equal(scored, np.broadcast_to(_first_draw(cfg, 69, ALE.taps), scored.shape))

    def test_clamping(self, monkeypatch):
        _patch_constants(monkeypatch, {"V_MAX": 0.05})
        cfg = PsoConfig(n_particles=10, max_iters=10, tol=0.0)
        *_, scored = _search(_awgn_frame(0.0, 70, 71, h=128), 70, cfg, ALE)
        # a step x' - x is the velocity up to the rounding of x + v
        assert np.abs(np.diff(scored, axis=0)).max() == pytest.approx(0.05, rel=1e-12)

    def test_position_update_is_vector_addition(self):
        cfg = PsoConfig(n_particles=6, max_iters=1, tol=0.0)
        d = _awgn_frame(0.0, 71, 72, h=128)
        *_, scored = _search(d, 71, cfg, ALE)
        np.testing.assert_array_equal(scored[1], _first_move(d, 71, cfg, ALE))

    def test_positions_stay_in_the_growing_box(self):
        """At the default constants a weight starts within INIT_RANGE of 0
        and moves at most V_MAX an iteration, so at iteration `it` every
        scored weight lies within INIT_RANGE + it * V_MAX, up to the
        rounding of x + v.  The frame grows by 1.5 a sample, so its
        predicting weights lie far outside that box and pull the swarm
        outward: the leading particle ends within 2 * V_MAX of the bound."""
        ale = AleConfig(taps=5, delay=16)
        d = (1.5 ** np.arange(96)).astype(complex)
        *_, scored = _search(d, 5, PsoConfig(max_iters=40, tol=0.0), ale)
        bound = pso.INIT_RANGE + np.arange(len(scored)) * pso.V_MAX
        reach = np.abs(scored).max(axis=(1, 2))
        assert len(scored) == 41 and np.all(reach <= bound + 1e-12)
        assert reach[-1] >= bound[-1] - 2 * pso.V_MAX


class TestUpdateBests:
    """Personal- and global-best bookkeeping, seen through a one-lane pso_batch."""

    def test_personal_best_moves_only_on_strictly_lower_cost(self):
        """On an all-zero frame every cost ties at 0.0, however far a
        particle moves, so every personal best stays at its start and the
        global best at the first particle's: the swarm scores the positions
        of one pulled towards its starting points."""
        cfg = PsoConfig(n_particles=5, max_iters=8, tol=0.0)
        *_, scored = _search(np.zeros(64, dtype=complex), 73, cfg, ALE)
        rng = np.random.default_rng(73)
        x = start = rng.uniform(-pso.INIT_RANGE, pso.INIT_RANGE, size=(5, ALE.taps))
        v = np.zeros_like(x)
        for positions in scored[1:]:
            r1, r2 = rng.uniform(size=(5, 2, 1)).transpose(1, 0, 2)
            v = np.clip(v + pso.C1 * r1 * (start - x) + pso.C2 * r2 * (start[0] - x), -pso.V_MAX, pso.V_MAX)
            x = x + v
            np.testing.assert_array_equal(positions, x)
        assert len(scored) == cfg.max_iters + 1 and not np.array_equal(x, start)

    def test_global_best_takes_first_of_tied_minimum(self):
        """Every cost of an all-zero frame ties at 0.0: the global best is
        the first particle's start, and the oracle agrees.  In a batch each
        lane takes the first particle of its own segment, not the batch's."""
        cfg = PsoConfig(max_iters=8, tol=0.0)
        for counts, seeds in (((5,), [74]), ((3, 5), [74, 75])):
            frames = np.zeros((len(counts), 64), dtype=complex)
            weights, histories = pso_batch(frames, seeds, cfg, ALE, counts)
            for d, seed, count, w, history in zip(frames, seeds, counts, weights, histories):
                lone = replace(cfg, n_particles=count)
                np.testing.assert_array_equal(w, _first_draw(lone, seed, ALE.taps)[0])
                assert history == [0.0] * cfg.max_iters
                w_ref, h_ref = loop_pso(d, ALE.taps, ALE.delay, lone, seed)
                np.testing.assert_array_equal(w, w_ref)
                assert h_ref == history

    def test_global_best_stays_on_a_tie(self, monkeypatch):
        # a swarm that never moves scores every particle's best again each
        # iteration: a tie, so no best moves
        _patch_constants(monkeypatch, {"C1": 0.0, "C2": 0.0})
        d = _awgn_frame(0.0, 75, 76, h=128)
        cfg = PsoConfig(n_particles=6, max_iters=6, tol=0.0)
        (weights,), (history,) = pso_batch(d[None], [75], cfg, ALE)
        start = _first_draw(cfg, 75, ALE.taps)
        start_costs = np.array([swarm_cost(w, d, ALE) for w in start])
        np.testing.assert_array_equal(weights, start[np.argmin(start_costs)])
        assert history == [start_costs.min()] * cfg.max_iters


class TestSearch:
    """One frame's search, a one-lane pso_batch."""

    def test_frozen_swarm_returns_initial_position(self, monkeypatch):
        _patch_constants(monkeypatch, {"C1": 0.0, "C2": 0.0})
        d = _awgn_frame(0.0, 70, 71, h=128)
        cfg = PsoConfig(n_particles=1, max_iters=1, tol=0.0)
        (weights,), _ = pso_batch(d[None], [72], cfg, ALE)
        np.testing.assert_array_equal(weights, _first_draw(cfg, 72, ALE.taps)[0])

    def test_history_non_increasing(self):
        rng = np.random.default_rng(73)
        for trial in range(10):
            h = int(rng.integers(40, 100))
            d = _random_frame(rng, h)
            cfg = PsoConfig(n_particles=6, max_iters=12, tol=0.0)
            _, (history,) = pso_batch(d[None], [trial], cfg, AleConfig(taps=3, delay=1))
            assert np.all(np.diff(history) <= 0.0)

    def test_gbest_matches_min_personal_best(self):
        """The personal bests are the cheapest positions each particle has
        scored, so the global best is the cheapest position scored so far."""
        d = _awgn_frame(-2.0, 74, 75, h=256)
        weights, history, scored = _search(d, 76, PsoConfig(n_particles=10, max_iters=15), ALE)
        costs = np.array([[swarm_cost(w, d, ALE) for w in positions] for positions in scored])
        assert history == np.minimum.accumulate(costs.min(axis=1))[1:].tolist()
        np.testing.assert_array_equal(weights, scored.reshape(-1, ALE.taps)[np.argmin(costs)])
        assert history[-1] == swarm_cost(weights, d, ALE)

    def test_deterministic(self):
        d = _awgn_frame(2.0, 77, 78, h=256)
        cfg = PsoConfig(n_particles=8, max_iters=10)
        (w1, h1), (w2, h2) = (pso_batch(d[None], [79], cfg, ALE) for _ in range(2))
        np.testing.assert_array_equal(w1, w2)
        assert h1 == h2

    def test_early_stop_after_patience_stalls(self):
        d = _awgn_frame(0.0, 83, 84, h=128)
        cfg = PsoConfig(n_particles=4, max_iters=50, tol=1e9, patience=3)
        _, (history,) = pso_batch(d[None], [85], cfg, ALE)
        assert len(history) == 3

    def test_overflowing_costs_are_inf_and_stall(self, monkeypatch):
        """At -2990 dB the frame's power times 1e6-sized weights overflows
        float64, and the quadratic form sums +inf and -inf products.  Such
        a cost is +inf, never nan, raises no warning, and an inf global
        best counts as no improvement, so the search stops after patience.
        The default box never reaches such weights; a patched one does."""
        d = _awgn_frame(-2990.0, 1, 2, h=64)
        assert swarm_cost(np.full(ALE.taps, 1e6), d, ALE) == np.inf
        _patch_constants(monkeypatch, {"INIT_RANGE": 1e6})
        for tol, iters in ((0.0, 12), (1e-4, 5)):
            cfg = PsoConfig(n_particles=8, max_iters=12, tol=tol, patience=5)
            _, histories = pso_batch(np.array([d, d]), [3, 4], cfg, ALE)
            assert histories == [[np.inf] * iters] * 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"C1": 1.5, "V_MAX": 0.5},
            {"C1": 0.0, "C2": 0.0},
            {"V_MAX": 0.05},
            {"n_particles": 1},
            {"C2": 0.0},
            {"C1": 0.0},
            {"INIT_RANGE": 0.5},
        ],
        ids=["defaults", "c1_v_max", "no_pull", "slow", "one_particle", "no_global_pull", "no_personal_pull", "small_box"],
    )
    def test_matches_loop_oracle(self, overrides, monkeypatch):
        rng = np.random.default_rng(86)
        ale = AleConfig(taps=3, delay=2)
        fields = _patch_constants(monkeypatch, overrides)
        for seed in range(4):
            d = _random_frame(rng, 40)
            cfg = replace(PsoConfig(n_particles=7, max_iters=15, tol=0.0), **fields)
            (weights,), (history,) = pso_batch(d[None], [seed], cfg, ale)
            w_ref, h_ref = loop_pso(d, ale.taps, ale.delay, cfg, seed)
            np.testing.assert_allclose(history, h_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(weights, w_ref, rtol=1e-12, atol=0.0)

    def test_matches_loop_oracle_through_early_stop(self):
        d = _awgn_frame(0.0, 87, 88, h=48)
        for seed in range(4):
            cfg = PsoConfig(n_particles=6, max_iters=40, tol=1e-3, patience=3)
            (weights,), (history,) = pso_batch(d[None], [seed], cfg, ALE)
            w_ref, h_ref = loop_pso(d, ALE.taps, ALE.delay, cfg, seed)
            assert len(history) == len(h_ref) < cfg.max_iters
            np.testing.assert_allclose(history, h_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(weights, w_ref, rtol=1e-12, atol=0.0)

    def test_beats_lms_residual_at_moderate_snr(self):
        """Averaged over 20 seeds the swarm's final cost sits at or below the
        gradient loop's mean residual power on the same frame."""
        frames = np.array([_awgn_frame(-2.0, 90 + s, 190 + s, h=10_000) for s in range(20)])
        residuals = frames.copy()  # the swarm below reads the frames
        _, diverged_at, _ = lms_batch(residuals, np.full(20, 0.01), ALE)
        assert np.all(diverged_at == -1)
        _, histories = pso_batch(frames, list(range(20)), PsoConfig(), ALE)
        gaps = [
            np.mean(np.abs(e[ALE.warmup :]) ** 2) - history[-1]
            for e, history in zip(residuals, histories)
        ]
        assert np.mean(gaps) > 0.0


def _assert_lane_is_searched_alone(d, seed, cfg, count, ale, weights, history):
    """A lane's weights and history from pso_batch are, bit for bit, those
    of the search of frame d alone with `count` particles."""
    (alone,), (alone_history,) = pso_batch(d[None], [seed], cfg, ale, [count])
    np.testing.assert_array_equal(weights, alone)
    assert history == alone_history


_COUNTS = (1, 3, 17, 60)
_ODD_COEFFICIENTS = {"C1": 1.37, "C2": 0.73}
_EARLY_STOP = {"tol": 1e-2, "patience": 3}


def _batch_cfg(**overrides):
    return replace(PsoConfig(max_iters=30, tol=0.0), **overrides)


def _seeds(counts):
    return [100 + i for i in range(len(counts))]


class TestPsoBatch:
    @pytest.mark.parametrize(
        "overrides",
        [{}, _ODD_COEFFICIENTS, _EARLY_STOP],
        ids=["defaults", "odd_coefficients", "early_stop"],
    )
    def test_lanes_equal_lone_searches_exactly(self, overrides, monkeypatch):
        """Swarms of 1, 3, 17 and 60 particles search random frames beside a
        60-particle swarm on a constant frame, which any weights summing to
        one predict exactly.  At the default constants that swarm settles
        onto such weights within 30 iterations, where only the direct
        recompute scores it."""
        rng = np.random.default_rng(91)
        constant = np.ones(48, dtype=complex)
        cfg, counts = _batch_cfg(**_patch_constants(monkeypatch, overrides)), _COUNTS + (60,)
        seeds = _seeds(counts)
        for taps in range(1, 10):
            ale = AleConfig(taps=taps, delay=1 + taps % 3)
            frames = np.array([_random_frame(rng, 48) for _ in _COUNTS] + [constant])
            weights, histories = pso_batch(frames, seeds, cfg, ale, counts)
            assert weights.shape == (len(counts), taps) and len(histories) == len(counts)
            for d, seed, count, w, history in zip(frames, seeds, counts, weights, histories):
                _assert_lane_is_searched_alone(d, seed, cfg, count, ale, w, history)
            lengths = [len(history) for history in histories]
            if overrides is _EARLY_STOP:
                assert len(set(lengths)) > 1 and max(lengths) < cfg.max_iters
            if not overrides:
                # the quadratic form cannot score below this; the residual can
                assert histories[-1][-1] < GRAM_FALLBACK_RATIO * np.mean(np.abs(constant) ** 2)

    @pytest.mark.parametrize("overrides", [_ODD_COEFFICIENTS, _EARLY_STOP])
    def test_lanes_match_loop_oracle(self, overrides, monkeypatch):
        """Random frames only: near a cosine's minimum the costs are rounding
        noise, so which particle wins there depends on the order of rounding."""
        rng = np.random.default_rng(92)
        cfg, seeds = _batch_cfg(max_iters=15, **_patch_constants(monkeypatch, overrides)), _seeds(_COUNTS)
        for taps in (1, 4, 9):
            ale = AleConfig(taps=taps, delay=2)
            frames = np.array([_random_frame(rng, 40) for _ in _COUNTS])
            weights, histories = pso_batch(frames, seeds, cfg, ale, _COUNTS)
            for d, seed, count, w, history in zip(frames, seeds, _COUNTS, weights, histories):
                w_ref, h_ref = loop_pso(d, taps, ale.delay, replace(cfg, n_particles=count), seed)
                assert len(history) == len(h_ref)
                np.testing.assert_allclose(history, h_ref, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0)

    def test_no_padded_slot_is_scored(self):
        """Every scoring call costs exactly the particles of the lanes still
        running: the counts' sum at the start, fewer after each early stop."""
        rng = np.random.default_rng(98)
        cfg = _batch_cfg(**_EARLY_STOP)
        frames = np.array([_random_frame(rng, 48) for _ in _COUNTS])
        score, scored = pso._scores, []

        def spy(w, *args):
            scored.append(w.size // ALE.taps)
            return score(w, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pso, "_scores", spy)
            _, histories = pso_batch(frames, _seeds(_COUNTS), cfg, ALE, _COUNTS)
        lengths = [len(history) for history in histories]
        running = [sum(n for n, k in zip(_COUNTS, lengths) if k > it) for it in range(max(lengths))]
        assert scored == [sum(_COUNTS)] + running
        assert scored[0] == 81 and scored[-1] < 81 and len(set(lengths)) > 1

    def test_statistics_formed_once_and_never_cut(self):
        """One _gram pass reads the batch itself, and every scoring call,
        before and after each early stop, reads those same statistics and
        the same frames by batch row: an early stop cuts only swarm state."""
        rng = np.random.default_rng(99)
        frames = np.array([_random_frame(rng, 48) for _ in range(6)])
        gram, score, grams, scored = pso._gram, pso._scores, [], []

        def gram_spy(D, ale):
            grams.append((D, gram(D, ale)))
            return grams[-1][1]

        def score_spy(w, R, p, c, D, rows, ale):
            scored.append((R, p, c, D))
            return score(w, R, p, c, D, rows, ale)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pso, "_gram", gram_spy)
            mp.setattr(pso, "_scores", score_spy)
            _, histories = pso_batch(frames, _seeds(range(6)), _batch_cfg(**_EARLY_STOP), ALE)
        assert len({len(history) for history in histories}) > 1
        assert len(grams) == 1 and grams[0][0] is frames
        inputs = (*grams[0][1], frames)
        assert scored and all(got is want for call in scored for got, want in zip(call, inputs, strict=True))

    def test_memory_does_not_grow_with_the_frame(self):
        """The swarm reads its frames in place and holds statistics of
        O(L^2 B): on 8 lanes of 20 particles, 5 iterations, pso_batch's
        tracemalloc peak at 50,000 samples is within 25 % of that at 5,000."""

        def peak(h):
            frames = np.array([_random_frame(np.random.default_rng(90 + b), h) for b in range(8)])
            tracemalloc.start()
            try:
                pso_batch(frames, _seeds(range(8)), PsoConfig(n_particles=20, max_iters=5), ALE)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 1.25 * peak(5_000)

    def test_bad_shapes_rejected(self):
        frames = np.array([_random_frame(np.random.default_rng(94), 40)] * 2)
        for bad_frames, seeds in ((frames, [1]), (frames[0], [1]), (frames[:0], [])):
            with pytest.raises(ValueError):
                pso_batch(bad_frames, seeds, PsoConfig(n_particles=4), ALE)

    def test_seeds_as_an_array_equal_the_list(self):
        """Seeds given as a numpy array search exactly as the same seeds
        given as a list; an empty batch is still refused, its shape named."""
        rng = np.random.default_rng(97)
        frames = np.array([_random_frame(rng, 40) for _ in range(3)])
        cfg = _batch_cfg(max_iters=5)
        weights, histories = pso_batch(frames, [1, 2, 3], cfg, ALE)
        array_weights, array_histories = pso_batch(frames, np.array([1, 2, 3]), cfg, ALE)
        assert array_weights.tobytes() == weights.tobytes() and array_histories == histories
        with pytest.raises(ValueError, match=r"need \(B, H\) frames, .*got \(0, 40\)"):
            pso_batch(frames[:0], [], cfg, ALE)

    @pytest.mark.parametrize(
        "seeds, counts", [([1, 2, 3], None), ([1, 2], [4]), ([1, 2], [4, 4, 4])]
    )
    def test_seeds_and_counts_must_match_the_frames(self, seeds, counts):
        frames = np.array([_random_frame(np.random.default_rng(95), 40)] * 2)
        with pytest.raises(ValueError, match="B seeds and B counts"):
            pso_batch(frames, seeds, PsoConfig(), ALE, counts)

    def test_list_refused_before_any_frame_sized_allocation(self):
        """Frames are not converted: a list of two 20,000-sample frames is
        refused before pso_batch allocates one frame's bytes."""
        frames = np.array([_random_frame(np.random.default_rng(98), 20_000)] * 2).tolist()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="got <class 'list'>"):
                pso_batch(frames, [1, 2], PsoConfig(), ALE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 16

    @pytest.mark.parametrize("count", [0, MAX_PARTICLES + 1, 10**9, 2.5])
    def test_bad_particle_count_rejected_before_allocation(self, count):
        """A count passed beside the config obeys its cap: 10**9 particles
        would need a 40 GB swarm, so the check must come first."""
        frames = np.array([_random_frame(np.random.default_rng(96), 40)] * 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="particle counts"):
                pso_batch(frames, [1, 2], PsoConfig(), ALE, [4, count])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCostFloor:
    @settings(deadline=None)
    @given(
        h=st.integers(20, 160),
        taps=st.integers(1, 5),
        delay=st.integers(1, 3),
        snr_db=st.floats(-10.0, 20.0),
        profile=st.sampled_from([None, *DEFAULT_PROFILES.values()]),
        seed=st.integers(0, 2**16),
    )
    def test_no_cost_below_the_wiener_floor(self, h, taps, delay, snr_db, profile, seed):
        """The cost of the weights LMS ends on, PSO's mse and every PSO
        history entry are at least the frame's floor J*, which the
        least-squares weights reach.  LMS's own residual power is not
        bounded by J*: its weights change from sample to sample."""
        ale = AleConfig(taps=taps, delay=delay)
        x = modulate(generate_bits(h, seed), ModConfig(m=2))
        d = add_awgn(x if profile is None else apply_nonlinear(x, profile), snr_db, seed + 1)
        floor = wiener_floor(d, taps, delay)
        reached = brute_force_cost(real_least_squares_weights(d, taps, delay), d, taps, delay)
        assert reached == pytest.approx(floor, rel=1e-9)
        least = floor * (1.0 - 1e-9)
        lms_weights, _, _ = lms_batch(np.repeat(d[None], 4, axis=0), [0.005, 0.02, 0.08, 0.3], ale)
        for w in lms_weights:
            assert np.mean(np.abs(_residual(d, w, ale)) ** 2) >= least
        (weights,), (history,) = pso_batch(d[None], [seed], PsoConfig(n_particles=10, max_iters=20), ale)
        assert np.mean(np.abs(_residual(d, weights, ale)) ** 2) >= least
        assert min(history) >= least


class TestExactSymmetries:
    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(12, 200),
        taps=st.integers(1, 5),
        delay=st.integers(1, 3),
        counts=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        max_iters=st.integers(1, 12),
        tol=st.sampled_from([0.0, 1e-4, 1e-2]),
        patience=st.integers(1, 3),
        k=st.integers(-16, 16),
        seed=st.integers(0, 2**16),
    )
    def test_scaled_conjugated_and_rotated_frames(self, h, taps, delay, counts, max_iters, tol, patience, k, seed):
        """Exact on any CPU, in any summation order: frames scaled by 2^k
        and searched with tol * 4^k end on the same weights, with every
        global-best cost scaled by 4^k, so each lane stops at the same
        iteration; conjugated or rotated frames (1j * d) end on the same
        weights and histories.  tol is absolute, so it must scale too."""
        ale = AleConfig(taps=taps, delay=delay)
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(len(counts), h)) + 1j * rng.normal(size=(len(counts), h))
        seeds = [seed + b for b in range(len(counts))]
        cfg = PsoConfig(n_particles=MAX_PARTICLES, max_iters=max_iters, tol=tol, patience=patience)
        weights, histories = pso_batch(frames, seeds, cfg, ale, counts)
        for d, d_cfg, scale in (
            (frames * 2.0**k, replace(cfg, tol=tol * 4.0**k), 4.0**k),
            (frames.conj(), cfg, 1.0),
            (1j * frames, cfg, 1.0),
        ):
            got_weights, got_histories = pso_batch(d, seeds, d_cfg, ale, counts)
            np.testing.assert_array_equal(got_weights, weights)
            assert got_histories == [[cost * scale for cost in history] for history in histories]
