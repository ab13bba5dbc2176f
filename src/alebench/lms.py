"""Sample-recursive least mean squares adaptation of the enhancer weights.

Each sample's residual is fed straight back into the weight update
w <- w + mu * Re(e[n] * conj(v[n])), the stochastic-gradient step on the
instantaneous squared error.  The real projection keeps the weight vector
real; for real-valued signals it reduces to the textbook update exactly.

A single run loops on Python scalars: with L ~ 5 taps, one numpy call per
operation costs more in call overhead than the arithmetic it does.  A
batch of runs loops once over the samples with the lanes as the last axis
of every array, so each numpy call serves every lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ale import AleConfig, FilterRun, _check_frame
from .errors import DivergenceError

__all__ = ["LmsConfig", "LmsTrace", "lms_step", "lms_run", "lms_batch", "WEIGHT_BOUND"]

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


def lms_batch(
    D: np.ndarray, mus: np.ndarray, ale: AleConfig
) -> tuple[np.ndarray, np.ndarray, list[DivergenceError | None]]:
    """Adapt B frames at once, frame b with step size mus[b].

    Returns (final_weights, Y, errors): the (B, L) final weights and the
    (B, H) outputs, lane b equal to lms_run(D[b], LmsConfig(mus[b]), ale)
    bit for bit, and per lane the DivergenceError lms_run would raise, or
    None.  A lane that diverges has its weights and step size zeroed at
    the crossing, so no inf or nan forms; its weights and outputs are
    meaningless.
    """
    D = np.ascontiguousarray(D, dtype=np.complex128)
    mus = np.array(mus, dtype=np.float64)  # a copy: a diverged lane's step is zeroed
    if D.ndim != 2 or D.shape[0] < 1 or mus.shape != D.shape[:1]:
        raise ValueError(f"need (B, H) frames and B step sizes, got {D.shape} and {mus.shape}")
    if not np.all(np.isfinite(mus) & (mus >= 0.0)):
        raise ValueError("step sizes must be finite and >= 0")
    _check_frame(D[0], ale)
    lanes, h = D.shape
    start, taps = ale.warmup, ale.taps
    Y = np.zeros_like(D)
    # (sample, re/im, lane) float views of the frames and the outputs, and
    # the (window, tap, re/im, lane) regressors, oldest tap first like lms_run
    d = D.view(np.float64).reshape(lanes, h, 2).transpose(1, 2, 0)
    y = Y.view(np.float64).reshape(lanes, h, 2).transpose(1, 2, 0)
    windows = sliding_window_view(d, taps, axis=0).transpose(0, 3, 1, 2)
    # Taps are summed over the leading axis: numpy sums a contiguous axis
    # of 8 or more pairwise, which would reorder lms_run's running sum.
    w = np.zeros((taps, 1, lanes))
    prod = np.empty((taps, 2, lanes))
    y_n = np.empty((2, lanes))
    e_n = np.empty((2, lanes))
    step = np.empty((taps, 1, lanes))
    errors: list[DivergenceError | None] = [None] * lanes
    for n in range(start, h):
        v = windows[n - start]
        np.add.reduce(np.multiply(w, v, out=prod), axis=0, out=y_n)
        y[n] = y_n
        np.subtract(d[n], y_n, out=e_n)
        # mu * (er*vr + ei*vi), the operation order of _update
        np.add.reduce(np.multiply(e_n, v, out=prod), axis=1, keepdims=True, out=step)
        step *= mus
        w += step
        if w.max() > WEIGHT_BOUND or -w.min() > WEIGHT_BOUND:
            peaks = np.abs(w).max(axis=(0, 1))
            for b in np.flatnonzero(peaks > WEIGHT_BOUND):
                errors[b] = DivergenceError(n, float(peaks[b]))
                w[..., b] = 0.0
                mus[b] = 0.0
    return w[:, 0, :].T[:, ::-1].copy(), Y, errors
