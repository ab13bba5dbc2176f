"""Tests for the residual-power metric."""

import numpy as np
import pytest

from alebench.ale import AleConfig, filter_frame
from alebench.metrics import mse
from alebench.pso import evaluate_cost

ALE = AleConfig(taps=5, delay=1)


class TestMse:
    def test_zero_when_equal(self):
        d = np.array([1.0, 2.0, 3.0])
        assert mse(d, d, range(0, 3)) == 0.0

    def test_direct_formula(self):
        assert mse(np.array([1.0, 2.0]), np.zeros(2), range(0, 2)) == pytest.approx(2.5)

    def test_restricts_to_valid_range(self):
        d = np.array([100.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 2.0])
        assert mse(d, y, range(1, 3)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4), range(0, 3))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(3), range(2, 2))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(101)
        d = rng.normal(size=32) + 1j * rng.normal(size=32)
        y = rng.normal(size=32) + 1j * rng.normal(size=32)
        perm = rng.permutation(32)
        assert mse(d, y, range(0, 32)) == pytest.approx(
            mse(d[perm], y[perm], range(0, 32)), rel=1e-15
        )

    def test_matches_swarm_cost_for_fixed_weights(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            h = int(rng.integers(16, 80))
            d = rng.normal(size=h) + 1j * rng.normal(size=h)
            w = rng.normal(size=5)
            run = filter_frame(d, w, ALE)
            via_metric = mse(d, run.y, run.valid)
            via_cost = evaluate_cost(w, d, ALE)
            assert via_metric == pytest.approx(via_cost, rel=1e-12)

