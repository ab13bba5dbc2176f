"""Sample-recursive least mean squares adaptation of the enhancer weights.

Each sample's residual is fed straight back into the weight update
w <- w + mu * Re(e[n] * conj(v[n])), the stochastic-gradient step on the
instantaneous squared error.  The real projection keeps the weight vector
real; for real-valued signals it reduces to the textbook update exactly.

Runs are adapted in batches: one loop over the samples with the lanes as
the last axis of every array, so each numpy call serves every lane.  With
L ~ 5 taps, a call per run and sample would cost more in call overhead
than the arithmetic it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ale import AleConfig, _check_frame
from .errors import DivergenceError

__all__ = ["LmsConfig", "lms_step", "lms_batch", "WEIGHT_BOUND"]

# Any |w| beyond this is treated as divergence rather than a usable state.
WEIGHT_BOUND = 1e6
_BLOCK = 64  # samples adapted between two divergence checks


@dataclass(frozen=True)
class LmsConfig:
    """Step size; adaptation always starts from zero weights."""

    mu: float = 0.01

    def __post_init__(self):
        if self.mu < 0.0 or not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


def _scratch(taps: int, lanes: int) -> tuple[np.ndarray, ...]:
    """_update's scratch: (L, 2, B) products, their halves, and the step."""
    prod = np.empty((taps, 2, lanes))
    return prod, prod[:, :1], prod[:, 1:], np.empty((taps, 1, lanes))


def _update(w, e_n, v, mus, scratch, out) -> None:
    """out = w + mus * Re(e_n * conj(v)), lanes last: (L, 1, B) weights,
    (2, B) real/imag errors, (L, 2, B) real/imag regressors, B step sizes
    and _scratch(L, B).  Each tap's step is mu * (er*vr + ei*vi), in that
    order; out may be w."""
    prod, re, im, step = scratch
    np.multiply(e_n, v, out=prod)
    np.add(re, im, out=step)
    step *= mus
    np.add(w, step, out=out)


def lms_step(
    w: np.ndarray, e_n: complex, v_n: np.ndarray, mu: float
) -> np.ndarray:
    """Single weight update from one error sample and its regressor: the
    update lms_batch makes, run on one lane."""
    w = np.array(w, dtype=np.float64)
    v_n = np.asarray(v_n)
    if w.ndim != 1 or w.shape != v_n.shape:
        raise ValueError(f"shape mismatch: weights {w.shape}, regressor {v_n.shape}")
    if not (np.isfinite(e_n) and np.all(np.isfinite(v_n)) and np.all(np.isfinite(w))):
        raise ValueError("non-finite input to weight update")
    if not (np.isfinite(mu) and mu >= 0.0):
        raise ValueError("step sizes must be finite and >= 0")
    taps = w.size
    v = np.ascontiguousarray(v_n, dtype=np.complex128).view(np.float64).reshape(taps, 2, 1)
    e = np.array([complex(e_n)]).view(np.float64).reshape(2, 1)
    w3 = w.reshape(taps, 1, 1)
    _update(w3, e, v, mu, _scratch(taps, 1), out=w3)
    return w


def lms_batch(
    D: np.ndarray, mus: np.ndarray, ale: AleConfig
) -> tuple[np.ndarray, np.ndarray, list[DivergenceError | None]]:
    """Adapt B frames at once, frame b with step size mus[b].

    Every lane starts from zero weights.  Warm-up samples (regressor not
    fully populated) are skipped: their output stays 0, so their residual
    equals the input.  Returns (final_weights, Y, errors): the (B, L) final
    weights, weight k multiplying d[n - delay - k], the (B, H) outputs and,
    per lane, DivergenceError(n, max|w|) for the first sample n after whose
    update some |w| exceeds WEIGHT_BOUND, or None.  A lane that diverges
    has its weights and step size zeroed at the crossing, so no inf or nan
    forms; its weights and outputs are meaningless.  A lane's result does
    not depend on the other lanes of the batch.  Frames must be finite.
    """
    D = np.ascontiguousarray(D, dtype=np.complex128)
    mus = np.array(mus, dtype=np.float64)  # a copy: a diverged lane's step is zeroed
    if D.ndim != 2 or D.shape[0] < 1 or mus.shape != D.shape[:1]:
        raise ValueError(f"need (B, H) frames and B step sizes, got {D.shape} and {mus.shape}")
    if not np.all(np.isfinite(mus) & (mus >= 0.0)):
        raise ValueError("step sizes must be finite and >= 0")
    _check_frame(D, ale)
    lanes, h = D.shape
    start, taps = ale.warmup, ale.taps
    Y = np.zeros_like(D)
    # (sample, re/im, lane) float views of the frames and the outputs, and
    # the (window, tap, re/im, lane) regressors, oldest tap first
    d = D.view(np.float64).reshape(lanes, h, 2).transpose(1, 2, 0)
    y = Y.view(np.float64).reshape(lanes, h, 2).transpose(1, 2, 0)
    windows = sliding_window_view(d, taps, axis=0).transpose(0, 3, 1, 2)
    # W[i + 1] is the weights after a block's sample i, W[0] its start.
    # Taps are summed over the leading axis, one running sum in tap order:
    # numpy sums a contiguous axis of 8 or more pairwise instead.
    W = np.zeros((_BLOCK + 1, taps, 1, lanes))
    rows = list(zip(W[:-1], W[1:]))
    scratch = _scratch(taps, lanes)
    prod = scratch[0]
    e_n = np.empty((2, lanes))
    errors: list[DivergenceError | None] = [None] * lanes
    # Each block is adapted unchecked, then all its rows are checked at
    # once.  A block with some |w| beyond the bound, inf or nan (a lane
    # overflows only after crossing it) is adapted again from row 0 with
    # the check and the zeroing after each sample.
    with np.errstate(all="ignore"):
        for first in range(start, h, _BLOCK):
            last = min(first + _BLOCK, h)
            for checked in (False, True):
                for n, (w, w_next), v, d_n, y_n in zip(
                        range(first, last), rows, windows[first - start :], d[first:], y[first:]):
                    np.add.reduce(np.multiply(w, v, out=prod), axis=0, out=y_n)
                    np.subtract(d_n, y_n, out=e_n)
                    _update(w, e_n, v, mus, scratch, out=w_next)
                    if checked:
                        peaks = np.abs(w_next).max(axis=(0, 1))
                        # not <=, so a nan peak crosses too.  A lane whose
                        # products overflow is flagged again after its
                        # zeroing (0 * inf is nan); it keeps its first crossing.
                        for b in np.flatnonzero(~(peaks <= WEIGHT_BOUND)):
                            errors[b] = errors[b] or DivergenceError(n, float(peaks[b]))
                            w_next[..., b] = 0.0
                            mus[b] = 0.0
                if np.abs(W[1 : last - first + 1]).max() <= WEIGHT_BOUND:
                    break
            W[0] = W[last - first]
    return W[0, :, 0, :].T[:, ::-1].copy(), Y, errors
