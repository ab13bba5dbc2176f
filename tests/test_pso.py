"""Tests for the swarm search over enhancer weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alebench.ale import AleConfig, filter_frame
from alebench.channel import DEFAULT_PROFILES, ChannelConfig, transmit
from alebench.lms import lms_batch
from alebench.metrics import mse
from alebench.pso import (
    PsoConfig,
    SwarmState,
    evaluate_cost,
    frame_costs,
    init_swarm,
    run_pso,
    step_swarm,
    update_bests,
)
from alebench.signal import ModConfig, generate_bits, modulate
from oracles import brute_force_cost, loop_pso, real_least_squares_weights, wiener_floor

ALE = AleConfig(taps=5, delay=1)


def _awgn_frame(snr_db, bits_seed, noise_seed, h):
    x = modulate(generate_bits(h, bits_seed), ModConfig(m=2))
    return transmit(x, ChannelConfig(snr_db=snr_db, seed=noise_seed))


def _random_frame(rng, h):
    return rng.normal(size=h) + 1j * rng.normal(size=h)


class TestEvaluateCost:
    def test_zero_frame_costs_nothing(self):
        cost = evaluate_cost(np.ones(5), np.zeros(64, dtype=complex), ALE)
        assert type(cost) is float
        assert cost == 0.0

    def test_hand_computed_two_tap_case(self):
        cfg = AleConfig(taps=2, delay=1)
        assert evaluate_cost([0.5, 0.5], np.array([1.0, 2.0, 3.0, 4.0]), cfg) == pytest.approx(2.25)

    def test_never_negative(self):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            taps = int(rng.integers(1, 6))
            h = int(rng.integers(taps + 3, 40))
            cfg = AleConfig(taps=taps, delay=1)
            cost = evaluate_cost(rng.normal(size=taps), _random_frame(rng, h), cfg)
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
            fast = evaluate_cost(w, d, cfg)
            slow = brute_force_cost(w, d, taps, delay)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_direct_fallback_on_exactly_predictable_frame(self):
        """A real cosine obeys d[n] = 2cos(w) d[n-1] - d[n-2], so its residual
        at w* is rounding noise and the quadratic form cancels to nothing."""
        for omega in (0.3, 0.7, 1.3):
            d = np.cos(omega * np.arange(64)).astype(complex)
            w = np.array([2.0 * np.cos(omega), -1.0, 0.0, 0.0, 0.0])
            c = np.mean(np.abs(d[ALE.warmup :]) ** 2)
            cost = evaluate_cost(w, d, ALE)
            slow = brute_force_cost(w, d, ALE.taps, ALE.delay)
            assert abs(cost - slow) <= 1e-12 * c
            # the direct sum keeps relative accuracy the Gram form cannot
            assert cost == pytest.approx(slow, rel=1e-9, abs=0.0)


def _sum_of_squares(w):
    return np.sum(w**2, axis=1)


def _init(cfg, taps, cost_fn=_sum_of_squares):
    return init_swarm(cfg, taps, cost_fn, np.random.default_rng(cfg.seed))


class TestInitSwarm:
    def test_velocities_start_at_zero(self):
        swarm = _init(PsoConfig(n_particles=12, seed=62), taps=5)
        np.testing.assert_array_equal(swarm.velocity, np.zeros((12, 5)))

    def test_positions_within_init_range(self):
        cfg = PsoConfig(n_particles=40, init_range=1.5, seed=63)
        swarm = _init(cfg, taps=4)
        assert swarm.position.shape == (40, 4)
        assert np.all(np.abs(swarm.position) <= 1.5)

    def test_single_particle_is_global_best(self):
        swarm = _init(PsoConfig(n_particles=1, seed=64), taps=3)
        np.testing.assert_array_equal(swarm.gbest_position, swarm.position[0])

    def test_same_seed_same_swarm(self):
        a = _init(PsoConfig(n_particles=8, seed=65), taps=5)
        b = _init(PsoConfig(n_particles=8, seed=65), taps=5)
        np.testing.assert_array_equal(a.position, b.position)

    def test_global_best_is_cheapest_initial_cost(self):
        swarm = _init(PsoConfig(n_particles=16, seed=66), taps=5)
        assert swarm.gbest_cost == swarm.pbest_cost.min()
        assert _sum_of_squares(swarm.gbest_position[None])[0] == swarm.gbest_cost

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(n_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(init_range=0.0)
        with pytest.raises(ValueError):
            PsoConfig(tol=-1.0)


def _swarm(position, velocity, pbest, gbest):
    position = np.array(position, dtype=float)
    return SwarmState(
        position=position,
        velocity=np.array(velocity, dtype=float),
        pbest_position=np.array(pbest, dtype=float),
        pbest_cost=np.ones(len(position)),
        gbest_position=np.array(gbest, dtype=float),
        gbest_cost=1.0,
    )


class TestVelocityAndPosition:
    def test_no_pull_when_everything_coincides(self):
        s = _swarm([[0.4, -0.1]], np.zeros((1, 2)), [[0.4, -0.1]], [0.4, -0.1])
        step_swarm(s, PsoConfig(), 0.7, 0.3)
        np.testing.assert_array_equal(s.velocity, np.zeros((1, 2)))
        np.testing.assert_array_equal(s.position, [[0.4, -0.1]])

    def test_scalar_hand_case(self):
        s = _swarm([[0.0]], [[0.0]], [[1.0]], [2.0])
        step_swarm(s, PsoConfig(c1=1.0, c2=1.0, v_max=2.0), 0.5, 0.5)
        np.testing.assert_allclose(s.velocity, [[1.5]])

    def test_zero_coefficients_keep_old_velocity(self):
        s = _swarm([[1.0, 1.0]], [[0.25, -0.5]], [[5.0, 5.0]], [-3.0, 2.0])
        step_swarm(s, PsoConfig(c1=0.0, c2=0.0), 0.9, 0.9)
        np.testing.assert_array_equal(s.velocity, [[0.25, -0.5]])

    def test_clamping(self):
        s = _swarm([[0.0]], [[0.0]], [[10.0]], [10.0])
        step_swarm(s, PsoConfig(v_max=0.75), 1.0, 1.0)
        np.testing.assert_array_equal(s.velocity, [[0.75]])

    def test_position_update_is_vector_addition(self):
        frozen = PsoConfig(c1=0.0, c2=0.0)
        s = _swarm([[1.0, -1.0]], [[0.5, 0.5]], np.zeros((1, 2)), np.zeros(2))
        step_swarm(s, frozen, 0.5, 0.5)
        np.testing.assert_array_equal(s.position, [[1.5, -0.5]])
        np.testing.assert_array_equal(s.position - s.velocity, [[1.0, -1.0]])
        still = _swarm([[1.0, -1.0]], np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(2))
        step_swarm(still, frozen, 0.5, 0.5)
        np.testing.assert_array_equal(still.position, [[1.0, -1.0]])

    def test_draws_broadcast_per_particle_or_per_component(self):
        cfg = PsoConfig(c1=1.0, c2=0.0, v_max=10.0)
        s = _swarm(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), np.zeros(2))
        step_swarm(s, cfg, np.array([[0.5], [0.25]]), np.zeros((2, 1)))
        np.testing.assert_array_equal(s.velocity, [[0.5, 0.5], [0.25, 0.25]])
        s = _swarm(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), np.zeros(2))
        step_swarm(s, cfg, np.array([[0.5, 0.75], [0.25, 1.0]]), np.zeros((2, 2)))
        np.testing.assert_array_equal(s.velocity, [[0.5, 0.75], [0.25, 1.0]])


class TestUpdateBests:
    def test_personal_best_moves_only_on_strictly_lower_cost(self):
        s = _swarm([[1.0], [2.0], [3.0]], np.zeros((3, 1)), [[0.0], [0.0], [0.0]], [0.0])
        s.pbest_cost = np.array([1.0, 1.0, 1.0])
        update_bests(s, np.array([0.5, 1.0, 2.0]))
        np.testing.assert_array_equal(s.pbest_cost, [0.5, 1.0, 1.0])
        np.testing.assert_array_equal(s.pbest_position, [[1.0], [0.0], [0.0]])

    def test_global_best_takes_first_of_tied_minimum(self):
        s = _swarm([[1.0], [2.0], [3.0]], np.zeros((3, 1)), np.zeros((3, 1)), [9.0])
        s.pbest_cost = np.full(3, np.inf)
        s.gbest_cost = 2.0
        update_bests(s, np.array([3.0, 1.0, 1.0]))
        assert s.gbest_cost == 1.0
        np.testing.assert_array_equal(s.gbest_position, [2.0])
        assert s.history == [1.0]

    def test_global_best_stays_on_a_tie(self):
        s = _swarm([[1.0], [2.0]], np.zeros((2, 1)), np.zeros((2, 1)), [9.0])
        s.pbest_cost = np.full(2, np.inf)
        s.gbest_cost = 1.0
        update_bests(s, np.array([1.0, 1.5]))
        np.testing.assert_array_equal(s.gbest_position, [9.0])
        assert s.history == [1.0]


class TestRunPso:
    def test_frozen_swarm_returns_initial_position(self):
        d = _awgn_frame(0.0, 70, 71, h=128)
        cfg = PsoConfig(n_particles=1, c1=0.0, c2=0.0, max_iters=1, tol=0.0, seed=72)
        weights, state = run_pso(d, cfg, ALE)
        init = _init(cfg, ALE.taps, frame_costs(d, ALE))
        np.testing.assert_array_equal(weights, init.position[0])

    def test_history_non_increasing(self):
        rng = np.random.default_rng(73)
        for trial in range(10):
            h = int(rng.integers(40, 100))
            d = _random_frame(rng, h)
            cfg = PsoConfig(n_particles=6, max_iters=12, tol=0.0, seed=trial)
            _, state = run_pso(d, cfg, AleConfig(taps=3, delay=1))
            hist = np.array(state.history)
            assert np.all(np.diff(hist) <= 0.0)

    def test_gbest_matches_min_personal_best(self):
        d = _awgn_frame(-2.0, 74, 75, h=256)
        _, state = run_pso(d, PsoConfig(n_particles=10, max_iters=15, seed=76), ALE)
        assert state.gbest_cost == state.pbest_cost.min()
        best = int(np.argmin(state.pbest_cost))
        np.testing.assert_array_equal(state.gbest_position, state.pbest_position[best])
        assert state.gbest_cost == evaluate_cost(state.gbest_position, d, ALE)

    def test_deterministic(self):
        d = _awgn_frame(2.0, 77, 78, h=256)
        cfg = PsoConfig(n_particles=8, max_iters=10, seed=79)
        w1, s1 = run_pso(d, cfg, ALE)
        w2, s2 = run_pso(d, cfg, ALE)
        np.testing.assert_array_equal(w1, w2)
        assert s1.history == s2.history

    def test_early_stop_after_patience_stalls(self):
        d = _awgn_frame(0.0, 83, 84, h=128)
        cfg = PsoConfig(n_particles=4, max_iters=50, tol=1e9, patience=3, seed=85)
        _, state = run_pso(d, cfg, ALE)
        assert len(state.history) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"per_dimension_draws": True},
            {"inertia": 0.7},
            {"inertia": 0.5, "per_dimension_draws": True, "c1": 1.5, "v_max": 0.5},
        ],
    )
    def test_matches_loop_oracle(self, overrides):
        rng = np.random.default_rng(86)
        ale = AleConfig(taps=3, delay=2)
        for seed in range(4):
            d = _random_frame(rng, 40)
            cfg = PsoConfig(n_particles=7, max_iters=15, tol=0.0, seed=seed, **overrides)
            weights, state = run_pso(d, cfg, ale)
            w_ref, h_ref = loop_pso(d, ale.taps, ale.delay, cfg)
            np.testing.assert_allclose(state.history, h_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(weights, w_ref, rtol=1e-12, atol=0.0)

    def test_matches_loop_oracle_through_early_stop(self):
        d = _awgn_frame(0.0, 87, 88, h=48)
        for seed in range(4):
            cfg = PsoConfig(n_particles=6, max_iters=40, tol=1e-3, patience=3, seed=seed)
            weights, state = run_pso(d, cfg, ALE)
            w_ref, h_ref = loop_pso(d, ALE.taps, ALE.delay, cfg)
            assert len(state.history) == len(h_ref) < cfg.max_iters
            np.testing.assert_allclose(state.history, h_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(weights, w_ref, rtol=1e-12, atol=0.0)

    def test_beats_lms_residual_at_moderate_snr(self):
        """Averaged over 20 seeds the swarm's final cost sits at or below the
        gradient loop's mean residual power on the same frame."""
        frames = np.array([_awgn_frame(-2.0, 90 + s, 190 + s, h=10_000) for s in range(20)])
        _, outputs, errors = lms_batch(frames, np.full(20, 0.01), ALE)
        assert errors == [None] * 20
        valid = range(ALE.warmup, 10_000)
        gaps = []
        for s, (d, y) in enumerate(zip(frames, outputs)):
            _, state = run_pso(d, PsoConfig(seed=s), ALE)
            gaps.append(mse(d, y, valid) - state.gbest_cost)
        assert np.mean(gaps) > 0.0


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
        d = transmit(x, ChannelConfig(snr_db=snr_db, seed=seed + 1, nonlinear=profile))
        floor = wiener_floor(d, taps, delay)
        reached = brute_force_cost(real_least_squares_weights(d, taps, delay), d, taps, delay)
        assert reached == pytest.approx(floor, rel=1e-9)
        least = floor * (1.0 - 1e-9)
        valid = range(ale.warmup, h)
        lms_weights, _, _ = lms_batch(np.repeat(d[None], 4, axis=0), [0.005, 0.02, 0.08, 0.3], ale)
        for w in lms_weights:
            assert mse(d, filter_frame(d, w, ale).y, valid) >= least
        w, state = run_pso(d, PsoConfig(n_particles=10, max_iters=20, seed=seed), ale)
        assert mse(d, filter_frame(d, w, ale).y, valid) >= least
        assert min(state.history) >= least
