"""Evaluation metric: mean squared residual."""

from __future__ import annotations

import numpy as np

__all__ = ["mse"]


def mse(d: np.ndarray, y: np.ndarray, valid: range) -> float:
    """Mean |d[n] - y[n]|^2 over `valid`.

    For fixed weights this is the swarm cost function evaluated at those
    weights, equal to it up to rounding.
    """
    d = np.asarray(d)
    y = np.asarray(y)
    if d.shape != y.shape:
        raise ValueError(f"length mismatch: {d.shape} vs {y.shape}")
    sl = slice(valid.start, valid.stop, valid.step)
    diff = d[sl] - y[sl]
    if diff.size == 0:
        raise ValueError("valid range selects no samples")
    return float(np.mean(np.abs(diff) ** 2))
