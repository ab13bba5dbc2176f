"""Sample-recursive least mean squares adaptation of the enhancer weights.

Each sample's residual is fed straight back into the weight update
w <- w + mu * Re(e[n] * conj(v[n])), the stochastic-gradient step on the
instantaneous squared error.  The real projection keeps the weight vector
real; for real-valued signals it reduces to the textbook update exactly.

The loop runs on Python scalars: with L ~ 5 taps, one numpy call per
operation costs more in call overhead than the arithmetic it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .ale import AleConfig, FilterRun, _check_frame
from .errors import DivergenceError

__all__ = ["LmsConfig", "LmsTrace", "lms_step", "lms_run", "WEIGHT_BOUND"]

# Any |w| beyond this is treated as divergence rather than a usable state.
WEIGHT_BOUND = 1e6


@dataclass(frozen=True)
class LmsConfig:
    """Step size; adaptation always starts from zero weights."""

    mu: float = 0.01

    def __post_init__(self):
        if self.mu < 0.0 or not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


@dataclass(frozen=True)
class LmsTrace:
    """Result of one adaptation pass over a frame."""

    final_weights: np.ndarray
    run: FilterRun


def _update(w: list, e_n: complex, v: list, mu: float) -> list:
    """w + mu * Re(e_n * conj(v)), tap by tap, on Python scalars."""
    return [wk + mu * (e_n * vk.conjugate()).real for wk, vk in zip(w, v)]


def lms_step(
    w: np.ndarray, e_n: complex, v_n: np.ndarray, mu: float
) -> np.ndarray:
    """Single weight update from one error sample and its regressor."""
    w = np.asarray(w, dtype=np.float64)
    v_n = np.asarray(v_n)
    if w.ndim != 1 or w.shape != v_n.shape:
        raise ValueError(f"shape mismatch: weights {w.shape}, regressor {v_n.shape}")
    if not (np.isfinite(e_n) and np.all(np.isfinite(v_n)) and np.all(np.isfinite(w))):
        raise ValueError("non-finite input to weight update")
    return np.array(_update(w.tolist(), complex(e_n), v_n.tolist(), mu), dtype=np.float64)


def lms_run(d: np.ndarray, cfg: LmsConfig, ale: AleConfig) -> LmsTrace:
    """Adapt over a frame, one sample at a time.

    Warm-up samples (regressor not fully populated) are skipped: their
    output stays zero and their residual equals the input.  Raises
    DivergenceError as soon as any weight magnitude crosses WEIGHT_BOUND.
    """
    d = _check_frame(d, ale)
    start, delay, mu = ale.warmup, ale.delay, float(cfg.mu)
    dl = d.tolist()
    # oldest tap first, in the order of the window slice dl[n-start : n-delay+1]
    w = [0.0] * ale.taps
    y = [0j] * d.size
    for n in range(start, d.size):
        v = dl[n - start : n - delay + 1]
        y_n = y[n] = sum(map(mul, w, v))
        w = _update(w, dl[n] - y_n, v, mu)
        if max(w) > WEIGHT_BOUND or -min(w) > WEIGHT_BOUND:
            raise DivergenceError(n, max(map(abs, w)))

    y = np.array(y, dtype=np.complex128)
    run = FilterRun(y=y, e=d - y, valid=range(start, d.size))
    return LmsTrace(final_weights=np.array(w[::-1], dtype=np.float64), run=run)
