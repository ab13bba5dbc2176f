"""Evaluation metrics: bit error rate and mean squared residual."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signal import align_and_compare

__all__ = ["MetricRecord", "ber", "mse"]


@dataclass(frozen=True)
class MetricRecord:
    """One sweep point's metrics plus the parameters needed to re-run it."""

    snr_db: float
    algorithm: str
    ber: float
    mse: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.ber <= 1.0):
            raise ValueError(f"ber must lie in [0, 1], got {self.ber}")
        if not self.mse >= 0.0:
            raise ValueError(f"mse must be >= 0, got {self.mse}")


def ber(tx_bits: np.ndarray, rx_bits: np.ndarray, lag: int = 0) -> float:
    """Fraction of mismatched bits over the aligned overlap."""
    compared, errors = align_and_compare(tx_bits, rx_bits, lag)
    if compared < 1:
        raise ValueError("no overlapping bits to compare")
    return errors / compared


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
