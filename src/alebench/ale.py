"""Adaptive line enhancer core: geometry, frame checks and the
fixed-weight residual.

The enhancer delays the received samples by `delay`, forms length-`taps`
regressors from the delayed stream, and applies a real weight vector to
produce the predictable component y.  The residual e = d - y is the
noise-cancelled stream, read from sample `warmup` on, the first whose
regressor lies wholly inside the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["AleConfig"]

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


def _check_frame(D: np.ndarray, ale: AleConfig) -> np.ndarray:
    """Frames along the last axis, as a C-contiguous complex128 array: long
    enough for the enhancer and finite."""
    D = np.ascontiguousarray(D, dtype=np.complex128)
    if D.shape[-1] <= ale.delay + ale.taps:
        raise ValueError(f"frame of length {D.shape[-1]} too short for delay {ale.delay} and {ale.taps} taps")
    x = D.view(np.float64)  # a nan or an inf part reaches its least or greatest: no per-sample temporary
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError("frames must be finite")
    return D


def _lags(d: np.ndarray, ale: AleConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """A frame's target d[warmup:] and its lag slices: lag k holds
    d[n - delay - k] for the same n, so it is the frame delayed by delay + k."""
    return d[ale.warmup :], [d[ale.warmup - ale.delay - k : d.size - ale.delay - k] for k in range(ale.taps)]


@np.errstate(over="ignore", invalid="ignore")
def _residual(d: np.ndarray, w: np.ndarray, ale: AleConfig) -> np.ndarray:
    """The residual e[n] = d[n] - sum_k w[k] * d[n - delay - k] of a frame d
    under fixed real weights w, over n from `ale.warmup` on, the lag sum
    formed in tap order.  Weights that are not `ale.taps` finite numbers
    are rejected; a sum that overflows is left inf or nan."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ale.taps,) or not np.isfinite(w).all():
        raise ValueError(f"weights must be {ale.taps} finite numbers, got {w!r}")
    target, lags = _lags(d, ale)
    return target - sum(wk * lag for wk, lag in zip(w, lags))
