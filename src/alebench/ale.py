"""Adaptive line enhancer core: delayed regressors and FIR filtering.

The enhancer delays the received samples by `delay`, forms length-`taps`
regressors from the delayed stream, and applies a real weight vector to
produce the predictable component y.  The residual e = d - y is the
noise-cancelled stream.  Samples whose regressor would reach before the
start of the frame are zero-padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["AleConfig", "filter_frame"]

# The most taps L.  In a full batch of 64 lanes at L = 32, lms_batch's float64
# (64, L, 2, 64) output regressors and (65, L, 2, 64) weight rows take 2 MiB
# each and its (64, 2, L, 2, 64) update regressors 4 MiB, _gram makes 528
# inner products per frame for its L x L R, and _scores' two (L, L, P)
# arrays take 128 MiB at P = 64 x 128 particles.
MAX_TAPS = 32


@dataclass(frozen=True)
class AleConfig:
    """FIR enhancer geometry.

    Parameters
    ----------
    taps : int
        Filter length L, from 1 to MAX_TAPS.
    delay : int
        Decorrelation delay in samples, >= 1.  The default of one sample
        is the canonical choice for broadband noise.
    """

    taps: int = 5
    delay: int = 1

    def __post_init__(self):
        if not 1 <= self.taps <= MAX_TAPS:
            raise ConfigError("taps", f"must be from 1 to {MAX_TAPS}, got {self.taps}")
        if self.delay < 1:
            raise ConfigError("delay", f"must be >= 1, got {self.delay}")

    @property
    def warmup(self) -> int:
        """First index whose regressor is fully inside the frame."""
        return self.delay + self.taps - 1


def _check_weights(w: np.ndarray, cfg: AleConfig) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (cfg.taps,):
        raise ValueError(f"weights must have shape ({cfg.taps},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def _check_frame(d: np.ndarray, cfg: AleConfig, stacked: bool = False) -> np.ndarray:
    """A 1-D frame, or if `stacked` frames along the last axis, as
    complex128: long enough for the enhancer and finite."""
    d = np.atleast_1d(np.asarray(d, dtype=np.complex128))
    if d.ndim != 1 and not stacked:
        raise ValueError(f"input must be a non-empty 1-D stream, got shape {d.shape}")
    if d.shape[-1] <= cfg.delay + cfg.taps:
        raise ValueError(f"frame of length {d.shape[-1]} too short for delay {cfg.delay} and {cfg.taps} taps")
    if not np.all(np.isfinite(d)):
        raise ValueError("frames must be finite")
    return d


def filter_frame(d: np.ndarray, w: np.ndarray, cfg: AleConfig) -> np.ndarray:
    """Apply fixed weights across a whole frame and return the output y.

    y[n] = sum_k w[k] * d[n - delay - k], with zero padding ahead of the
    frame; the first `cfg.warmup` outputs see part of that padding.
    """
    d = _check_frame(d, cfg)
    w = _check_weights(w, cfg)
    delayed = np.concatenate([np.zeros(cfg.delay, dtype=np.complex128), d[: d.size - cfg.delay]])
    return np.convolve(delayed, w)[: d.size]
