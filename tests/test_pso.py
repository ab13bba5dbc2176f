"""Tests for the swarm search over enhancer weights."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alebench.ale import AleConfig, filter_frame
from alebench.channel import DEFAULT_PROFILES, ChannelConfig, transmit
from alebench.lms import lms_batch
from alebench.metrics import mse
from alebench.pso import PsoConfig, evaluate_cost, frame_costs, run_pso
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


@pytest.mark.parametrize(
    "call",
    [
        lambda d: frame_costs(d, ALE),
        lambda d: evaluate_cost(np.ones(5), d, ALE),
        lambda d: run_pso(d, PsoConfig(), ALE),
    ],
    ids=["frame_costs", "evaluate_cost", "run_pso"],
)
def test_non_finite_frame_rejected(call):
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        d = np.ones(64, dtype=complex)
        d[10] = bad
        with pytest.raises(ValueError, match="finite"):
            call(d)


def _first_draw(cfg, taps):
    """The (N, taps) starting positions run_pso draws for `cfg`."""
    rng = np.random.default_rng(cfg.seed)
    return rng.uniform(-cfg.init_range, cfg.init_range, size=(cfg.n_particles, taps))


class TestPsoConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(n_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(init_range=0.0)
        with pytest.raises(ValueError):
            PsoConfig(tol=-1.0)


class TestInitSwarm:
    """The swarm a search starts from, seen through run_pso."""

    def test_velocities_start_at_zero(self):
        # inertia scales only the previous velocity, so it leaves the first
        # move unchanged exactly when the swarm starts at rest
        d = _awgn_frame(0.0, 62, 63, h=128)
        a, b = (
            run_pso(d, PsoConfig(n_particles=12, max_iters=1, tol=0.0, inertia=i, seed=62), ALE)[1]
            for i in (1.0, 0.3)
        )
        np.testing.assert_array_equal(a.velocity, b.velocity)
        assert np.any(a.velocity != 0.0)

    def test_positions_within_init_range(self):
        cfg = PsoConfig(n_particles=40, init_range=1.5, c1=0.0, c2=0.0, max_iters=1, tol=0.0,
                        seed=63)
        _, state = run_pso(_awgn_frame(0.0, 63, 64, h=128), cfg, AleConfig(taps=4, delay=1))
        assert state.position.shape == (40, 4)
        assert np.all(np.abs(state.position) <= 1.5)
        np.testing.assert_array_equal(state.position, _first_draw(cfg, 4))

    def test_single_particle_is_global_best(self):
        cfg = PsoConfig(n_particles=1, max_iters=5, tol=0.0, seed=64)
        weights, state = run_pso(_awgn_frame(0.0, 64, 65, h=128), cfg, AleConfig(taps=3, delay=1))
        np.testing.assert_array_equal(weights, state.pbest_position[0])
        assert state.gbest_cost == state.pbest_cost[0]

    def test_same_seed_same_swarm(self):
        d = _awgn_frame(0.0, 65, 66, h=128)
        a, b, c = (
            run_pso(d, PsoConfig(n_particles=8, max_iters=3, seed=s), ALE)[1] for s in (65, 65, 66)
        )
        for name in ("position", "velocity", "pbest_position", "pbest_cost"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.position, c.position)

    def test_global_best_is_cheapest_initial_cost(self):
        d = _awgn_frame(0.0, 66, 67, h=128)
        cfg = PsoConfig(n_particles=16, c1=0.0, c2=0.0, max_iters=1, tol=0.0, seed=66)
        weights, state = run_pso(d, cfg, ALE)
        start = _first_draw(cfg, ALE.taps)
        start_costs = frame_costs(d, ALE)(start)
        assert state.gbest_cost == start_costs.min()
        np.testing.assert_array_equal(weights, start[np.argmin(start_costs)])


class TestVelocityAndPosition:
    """The move v' = inertia*v + c1*r1*(pbest - x) + c2*r2*(gbest - x),
    clamped, then x' = x + v', seen through run_pso."""

    def test_no_pull_when_everything_coincides(self):
        # a lone particle is its own personal and global best
        cfg = PsoConfig(n_particles=1, max_iters=5, tol=0.0, seed=67)
        _, state = run_pso(_awgn_frame(0.0, 67, 68, h=128), cfg, ALE)
        np.testing.assert_array_equal(state.velocity, np.zeros((1, ALE.taps)))
        np.testing.assert_array_equal(state.position, _first_draw(cfg, ALE.taps))

    def test_scalar_hand_case(self):
        d = _awgn_frame(0.0, 68, 69, h=128)
        ale = AleConfig(taps=1, delay=1)
        cfg = PsoConfig(n_particles=2, c1=1.0, c2=1.0, v_max=2.0, max_iters=1, tol=0.0, seed=68)
        _, state = run_pso(d, cfg, ale)
        rng = np.random.default_rng(cfg.seed)
        x = rng.uniform(-cfg.init_range, cfg.init_range, size=(2, 1))
        r2 = rng.uniform(size=(2, 2, 1))[:, 1]
        gbest = x[np.argmin(frame_costs(d, ale)(x))]
        # the swarm is at rest on its personal bests: only the global pull acts
        v = np.clip(r2 * (gbest - x), -2.0, 2.0)
        np.testing.assert_array_equal(state.velocity, v)
        np.testing.assert_array_equal(state.position, x + v)

    def test_zero_coefficients_keep_old_velocity(self):
        cfg = PsoConfig(n_particles=6, c1=0.0, c2=0.0, inertia=0.5, max_iters=5, tol=0.0, seed=69)
        _, state = run_pso(_awgn_frame(0.0, 69, 70, h=128), cfg, ALE)
        np.testing.assert_array_equal(state.velocity, np.zeros((6, ALE.taps)))
        np.testing.assert_array_equal(state.position, _first_draw(cfg, ALE.taps))

    def test_clamping(self):
        cfg = PsoConfig(n_particles=10, v_max=0.05, max_iters=10, tol=0.0, seed=70)
        _, state = run_pso(_awgn_frame(0.0, 70, 71, h=128), cfg, ALE)
        assert np.abs(state.velocity).max() == 0.05

    def test_position_update_is_vector_addition(self):
        cfg = PsoConfig(n_particles=6, max_iters=1, tol=0.0, seed=71)
        _, state = run_pso(_awgn_frame(0.0, 71, 72, h=128), cfg, ALE)
        np.testing.assert_array_equal(state.position, _first_draw(cfg, ALE.taps) + state.velocity)

    def test_draws_broadcast_per_particle_or_per_component(self):
        """From rest, the first move is c2*r2*(gbest - x): one r2 per
        particle scales its whole pull, one per component does not."""
        d = _awgn_frame(0.0, 72, 73, h=128)
        spreads = []
        for per_dimension in (False, True):
            cfg = PsoConfig(n_particles=8, v_max=np.inf, max_iters=1, tol=0.0, seed=72,
                            per_dimension_draws=per_dimension)
            _, state = run_pso(d, cfg, ALE)
            start = _first_draw(cfg, ALE.taps)
            pull = start[np.argmin(frame_costs(d, ALE)(start))] - start
            moved = np.any(pull != 0.0, axis=1)
            ratio = state.velocity[moved] / pull[moved]
            spreads.append(np.ptp(ratio, axis=1).max() / ratio.max())
        assert spreads[0] < 1e-12 and spreads[1] > 1e-3


class TestUpdateBests:
    """Personal- and global-best bookkeeping, seen through run_pso."""

    def test_personal_best_moves_only_on_strictly_lower_cost(self):
        # on an all-zero frame every cost ties at 0.0, however far a particle moves
        cfg = PsoConfig(n_particles=5, max_iters=8, tol=0.0, seed=73)
        _, state = run_pso(np.zeros(64, dtype=complex), cfg, ALE)
        np.testing.assert_array_equal(state.pbest_position, _first_draw(cfg, ALE.taps))
        np.testing.assert_array_equal(state.pbest_cost, np.zeros(5))
        assert not np.array_equal(state.position, state.pbest_position)

    def test_global_best_takes_first_of_tied_minimum(self):
        """Every cost of an all-zero frame ties at 0.0: the global best is
        the first particle's start, and the oracle agrees."""
        d = np.zeros(64, dtype=complex)
        cfg = PsoConfig(n_particles=5, max_iters=8, tol=0.0, seed=74)
        weights, state = run_pso(d, cfg, ALE)
        np.testing.assert_array_equal(weights, _first_draw(cfg, ALE.taps)[0])
        assert state.history == [0.0] * cfg.max_iters
        w_ref, h_ref = loop_pso(d, ALE.taps, ALE.delay, cfg)
        np.testing.assert_array_equal(weights, w_ref)
        assert h_ref == state.history

    def test_global_best_stays_on_a_tie(self):
        # a swarm that never moves scores every particle's best again each
        # iteration: a tie, so no best moves
        d = _awgn_frame(0.0, 75, 76, h=128)
        cfg = PsoConfig(n_particles=6, c1=0.0, c2=0.0, max_iters=6, tol=0.0, seed=75)
        weights, state = run_pso(d, cfg, ALE)
        start = _first_draw(cfg, ALE.taps)
        start_costs = frame_costs(d, ALE)(start)
        np.testing.assert_array_equal(state.pbest_cost, start_costs)
        np.testing.assert_array_equal(weights, start[np.argmin(start_costs)])
        assert state.history == [start_costs.min()] * cfg.max_iters


class TestRunPso:
    def test_frozen_swarm_returns_initial_position(self):
        d = _awgn_frame(0.0, 70, 71, h=128)
        cfg = PsoConfig(n_particles=1, c1=0.0, c2=0.0, max_iters=1, tol=0.0, seed=72)
        weights, _ = run_pso(d, cfg, ALE)
        np.testing.assert_array_equal(weights, _first_draw(cfg, ALE.taps)[0])

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
            {"c1": 0.0, "c2": 0.0},
            {"v_max": 0.05},
            {"n_particles": 1},
        ],
    )
    def test_matches_loop_oracle(self, overrides):
        rng = np.random.default_rng(86)
        ale = AleConfig(taps=3, delay=2)
        for seed in range(4):
            d = _random_frame(rng, 40)
            cfg = replace(PsoConfig(n_particles=7, max_iters=15, tol=0.0, seed=seed), **overrides)
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
