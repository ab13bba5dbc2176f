"""Adaptive line enhancer core: delayed regressors and FIR filtering.

The enhancer delays the received samples by `delay`, forms length-`taps`
regressors from the delayed stream, and applies a real weight vector to
produce the predictable component y.  The residual e = d - y is the
noise-cancelled stream.  Samples whose regressor would reach before the
start of the frame are zero-padded and excluded from `valid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AleConfig", "FilterRun", "filter_frame"]


@dataclass(frozen=True)
class AleConfig:
    """FIR enhancer geometry.

    Parameters
    ----------
    taps : int
        Filter length L, >= 1.
    delay : int
        Decorrelation delay in samples, >= 1.  The default of one sample
        is the canonical choice for broadband noise.
    """

    taps: int = 5
    delay: int = 1

    def __post_init__(self):
        if self.taps < 1:
            raise ValueError(f"taps must be >= 1, got {self.taps}")
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")

    @property
    def warmup(self) -> int:
        """First index whose regressor is fully inside the frame."""
        return self.delay + self.taps - 1


@dataclass(frozen=True)
class FilterRun:
    """One filtering pass: output y, residual e = d - y, and the index
    range over which regressors were fully populated."""

    y: np.ndarray
    e: np.ndarray
    valid: range = field(repr=False)


def _check_weights(w: np.ndarray, cfg: AleConfig) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (cfg.taps,):
        raise ValueError(f"weights must have shape ({cfg.taps},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def _check_frame(d: np.ndarray, cfg: AleConfig) -> np.ndarray:
    """A frame, or frames along the last axis, as complex128: long enough
    for the enhancer and finite."""
    d = np.atleast_1d(np.asarray(d, dtype=np.complex128))
    if d.shape[-1] <= cfg.delay + cfg.taps:
        raise ValueError(f"frame of length {d.shape[-1]} too short for delay {cfg.delay} and {cfg.taps} taps")
    if not np.all(np.isfinite(d)):
        raise ValueError("frames must be finite")
    return d


def filter_frame(d: np.ndarray, w: np.ndarray, cfg: AleConfig) -> FilterRun:
    """Apply fixed weights across a whole frame.

    y[n] = sum_k w[k] * d[n - delay - k], with zero padding ahead of the
    frame; e = d - y everywhere.  `valid` excludes the warm-up prefix.
    """
    d = _check_frame(d, cfg)
    w = _check_weights(w, cfg)
    delayed = np.concatenate([np.zeros(cfg.delay, dtype=np.complex128), d[: d.size - cfg.delay]])
    y = np.convolve(delayed, w)[: d.size]
    e = d - y
    return FilterRun(y=y, e=e, valid=range(cfg.warmup, d.size))
