"""Sample-recursive least mean squares adaptation of the enhancer weights.

Each sample's residual is fed straight back into the weight update
w <- w + mu * Re(e[n] * conj(v[n])), the stochastic-gradient step on the
instantaneous squared error.  The real projection keeps the weight vector
real; for real-valued signals it reduces to the textbook update exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ale import AleConfig, FilterRun, _check_frame
from .errors import DivergenceError

__all__ = ["LmsConfig", "LmsTrace", "lms_step", "lms_run", "WEIGHT_BOUND"]

# Any |w| beyond this is treated as divergence rather than a usable state.
WEIGHT_BOUND = 1e6


@dataclass(frozen=True)
class LmsConfig:
    """Step size and initial weights; `w0 = None` starts from zeros."""

    mu: float = 0.01
    w0: np.ndarray | None = None

    def __post_init__(self):
        if self.mu < 0.0 or not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


@dataclass(frozen=True)
class LmsTrace:
    """Result of one adaptation pass over a frame."""

    final_weights: np.ndarray
    run: FilterRun
    per_sample_mse: np.ndarray = field(repr=False)


def lms_step(
    w: np.ndarray, e_n: complex, v_n: np.ndarray, mu: float
) -> np.ndarray:
    """Single weight update from one error sample and its regressor."""
    w = np.asarray(w, dtype=np.float64)
    v_n = np.asarray(v_n)
    if w.shape != v_n.shape:
        raise ValueError(f"shape mismatch: weights {w.shape}, regressor {v_n.shape}")
    if not (np.isfinite(e_n) and np.all(np.isfinite(v_n)) and np.all(np.isfinite(w))):
        raise ValueError("non-finite input to weight update")
    return w + mu * np.real(e_n * np.conj(v_n))


def lms_run(d: np.ndarray, cfg: LmsConfig, ale: AleConfig) -> LmsTrace:
    """Adapt over a frame, one sample at a time.

    Warm-up samples (regressor not fully populated) are skipped: their
    output stays zero and their residual equals the input.  Raises
    DivergenceError as soon as any weight magnitude crosses WEIGHT_BOUND.
    """
    d = _check_frame(d, ale)
    if cfg.w0 is None:
        w = np.zeros(ale.taps)
    else:
        w = np.asarray(cfg.w0, dtype=np.float64).copy()
        if w.shape != (ale.taps,):
            raise ValueError(f"w0 must have shape ({ale.taps},), got {w.shape}")

    y = np.zeros(d.size, dtype=np.complex128)
    start = ale.warmup
    for n in range(start, d.size):
        lo = n - ale.delay - ale.taps + 1
        v = d[lo : n - ale.delay + 1][::-1]
        y[n] = np.dot(w, v)
        e_n = d[n] - y[n]
        w = w + cfg.mu * np.real(e_n * np.conj(v))
        peak = np.max(np.abs(w))
        if peak > WEIGHT_BOUND:
            raise DivergenceError(n, float(peak))

    e = d - y
    run = FilterRun(y=y, e=e, valid=range(start, d.size))
    return LmsTrace(final_weights=w, run=run, per_sample_mse=np.abs(e) ** 2)
