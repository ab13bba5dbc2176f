"""Sample-recursive least mean squares adaptation of the enhancer weights.

Each sample's residual e[n] = d[n] - y[n], which a run returns, drives the
weight update w <- w + mu * Re(e[n] * conj(v[n])), the stochastic-gradient
step on the instantaneous squared error.  The real projection keeps the
weight vector real; for real-valued signals it is the textbook update.

Runs are adapted in batches: one loop over the samples with the lanes as
the last axis of every array, so each numpy call serves every lane.  With
L ~ 5 taps, a call per run and sample would cost more in call overhead
than the arithmetic it does.  That overhead is smallest on contiguous
operands of one shape, so each block of samples is first copied into
contiguous buffers laid out for the calls that read it.  A block reads its
frame samples once, into those buffers, before it writes its residuals, so
each residual is written over the frame sample it was formed from: a batch
holds one (B, H) array while it adapts, not two.  A caller that reads a
frame after LMS adapts a copy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ale import AleConfig, _check_frame

__all__ = ["lms_batch", "WEIGHT_BOUND"]

# Any |w| beyond this is treated as divergence rather than a usable state.
WEIGHT_BOUND = 1e6
_BLOCK = 64  # samples adapted between two divergence checks


def lms_batch(D: np.ndarray, mus: np.ndarray, ale: AleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adapt B frames at once, frame b with step size mus[b], writing each
    residual d - y over the frame sample it was formed from.

    D must be a writeable C-contiguous complex128 (B, H) array of finite
    frames; anything else is rejected before any sample is written.  Every
    lane starts from zero weights.  Warm-up samples (regressor not fully
    populated) are skipped: their output stays 0, so their residual is the
    sample, left as it is.  Returns (final_weights, diverged_at,
    max_weight): the (B, L) final weights, weight k multiplying
    d[n - delay - k], and, per lane, the first sample n after whose update
    some |w| exceeds WEIGHT_BOUND (-1 if none) and that max |w| (0.0 if
    none).  From its crossing on, a diverged lane's weights and step size
    are 0, so its final weights are 0 and its residuals after sample n are
    its frame less the zeros that zero weights give; no weight or residual
    is inf or nan.  A lane's result does not depend on the other lanes of
    the batch.
    """
    if not (isinstance(D, np.ndarray) and D.dtype == np.complex128 and D.flags.c_contiguous and D.flags.writeable):
        raise ValueError("frames must be a writeable C-contiguous complex128 array: their residuals are written over them")
    mus = np.asarray(mus, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] < 1 or mus.shape != D.shape[:1]:
        raise ValueError(f"need (B, H) frames and B step sizes, got {D.shape} and {mus.shape}")
    if not np.all(np.isfinite(mus) & (mus >= 0.0)):
        raise ValueError("step sizes must be finite and >= 0")
    _check_frame(D, ale)
    lanes, h = D.shape
    start, taps = ale.warmup, ale.taps
    # (sample, re/im, lane) float view of the frames, and of the residuals
    # written over them
    d = D.view(np.float64).reshape(lanes, h, 2).transpose(1, 2, 0)
    # A block reads the frames only through `span`, (sample, re/im, lane),
    # the frame samples [first - start, last): the start samples before the
    # block, kept from the one before, then the block's own, copied in
    # before its residuals are written over them.  Its (window, tap, re/im,
    # lane) regressors, oldest tap first, are one view made once: window i
    # is that of the block's sample i.  After a block, its last start
    # samples move to the front.
    span = np.empty((start + _BLOCK, 2, lanes))
    span[:start] = d[:start]
    windows = sliding_window_view(span, taps, axis=0).transpose(0, 3, 1, 2)
    # Each block's regressors are copied into contiguous buffers, so that
    # no call of the sample loop reads a strided operand and only the
    # update's product broadcasts one, the error over the taps.  The output
    # regressors end in the sample itself, at a weight fixed at -1, so their
    # product sums to y - d, the error negated.  Each lane's weights are
    # held twice, beside the real and the imaginary half of its regressor,
    # so that product is of one shape.  It is summed over its leading axis,
    # one running sum in tap order, sample last: numpy would sum an
    # innermost axis of 8 or more pairwise.  The update reads the regressors
    # as (re/im, tap, copy, lane), each part repeated over the two copies,
    # so that its real and imaginary halves are contiguous and of the
    # weights' shape.
    v_out = np.empty((_BLOCK, taps + 1, 2, lanes))
    v_up = np.empty((_BLOCK, 2, taps, 2, lanes))
    ne_block = np.empty((_BLOCK, 2, lanes))  # y - d, broadcast by the update as (re/im, 1, 1, lane)
    # W[i + 1] is the weights after a block's sample i, W[0] its start
    W = np.zeros((_BLOCK + 1, taps + 1, 2, lanes))
    W[:, taps] = -1.0
    rows = list(zip(W[:-1], W[:-1, :taps], W[1:, :taps], v_out, v_up, ne_block, ne_block[:, :, None, None]))
    steps = np.tile(mus, (taps, 2, 1))  # a diverged lane's column is zeroed
    prod = np.empty((taps + 1, 2, lanes))
    # the update's (re/im, tap, copy, lane) products, each half contiguous
    re, im = products = np.empty((2, taps, 2, lanes))
    step = np.empty((taps, 2, lanes))
    diverged_at, max_weight = np.full(lanes, -1), np.zeros(lanes)
    multiply, subtract, add, add_reduce = np.multiply, np.subtract, np.add, np.add.reduce
    # Each block is adapted once, then all its rows are checked at once,
    # on one copy of the weights.  Lanes share no arithmetic, so a lane
    # with a row beyond the bound, inf or nan is mended from its rows:
    # after its first such row it gets what it would have had, zeroed right
    # after that update.
    with np.errstate(all="ignore"):
        for first in range(start, h, _BLOCK):
            last = min(first + _BLOCK, h)
            size = last - first
            span[start : start + size] = d[first:last]
            v_out[:size, :taps] = windows[:size]
            v_out[:size, taps] = span[start : start + size]
            v_up[:size] = v_out[:size, :taps].transpose(0, 2, 1, 3)[:, :, :, None]
            for w, w_t, w_next_t, v, v_t, ne_n, ne_t in rows[:size]:
                multiply(v, w, prod)
                add_reduce(prod, 0, None, ne_n)
                # each tap's step is mu * (er*vr + ei*vi) negated, in that
                # order, so both copies of a weight stay equal
                multiply(v_t, ne_t, products)
                add(re, im, step)
                multiply(step, steps, step)
                subtract(w_t, step, w_next_t)
            weights = W[1 : size + 1, :taps, 0]
            if not np.abs(weights).max() <= WEIGHT_BOUND:
                # not <=, so a nan peak crosses too.  A lane zeroed in an
                # earlier block whose products overflow (0 * inf is nan)
                # is mended again; it keeps its first crossing.
                peaks = np.abs(weights).max(axis=1)
                for b in np.flatnonzero(~np.all(peaks <= WEIGHT_BOUND, axis=0)):
                    i = int(np.argmin(peaks[:, b] <= WEIGHT_BOUND))
                    if diverged_at[b] < 0:
                        diverged_at[b], max_weight[b] = first + i, peaks[i, b]
                    W[size, :taps, :, b] = steps[..., b] = 0.0
                    # the mended rows' y - d, summed as the loop sums them
                    add_reduce(v_out[i + 1 : size, :, :, b] * W[size, :, :1, b], 1, None, ne_block[i + 1 : size, :, b])
            # 0 - (y - d), not -(y - d), so that d == y gives +0 as d - y does
            d[first:last] = 0.0 - ne_block[:size]
            span[:start] = span[size : size + start]
            W[0] = W[size]
    return W[0, :taps, 0].T[:, ::-1].copy(), diverged_at, max_weight
