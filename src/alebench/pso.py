"""Particle-swarm search for the enhancer weight vector.

A particle's position is a candidate weight vector; its cost is the mean
squared residual of the frame under those weights held fixed (ale._residual).
That cost is a quadratic in the real weights, so a batch is reduced once to
its frames' statistics, lanes last, and every particle then costs O(L^2).
A search reports only its global best: the weights, and the cost after
each iteration.  Velocities start at zero, and every random draw of an
iteration happens before any cost is computed, so a search is a pure
function of its seed.  The searches of a batch of frames run as one loop
over (L, P) arrays, P the batch's particles, each lane's swarm one
contiguous segment of the particle axis, in lane order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ale import AleConfig, _check_frame, _lags, _residual
from .errors import ConfigError

__all__ = ["PsoConfig", "pso_batch"]

# A quadratic-form cost below this fraction of c + w'Rw has lost too many
# digits to cancellation and is recomputed from the residual directly.
GRAM_FALLBACK_RATIO = 1e-6
# The largest swarm: _scores holds two (L, L, P) float64 arrays at once,
# 128 MiB for a full batch of 64 lanes of 128 particles at ale.MAX_TAPS = 32.
MAX_PARTICLES = 128
# The longest search: pso_batch's (max_iters, B) float64 history takes 5 MB for
# 64 lanes at 10,000 iterations, and its lists, 32 B an entry, 20 MB.
MAX_ITERS = 10_000
# The update rule's fixed coefficients: the pulls toward a particle's own
# best and the swarm's, the per-component velocity clamp, and the half-width
# of the start box.  After `it` iterations every weight lies within
# INIT_RANGE + it * V_MAX of 0.
C1, C2, V_MAX, INIT_RANGE = 2.0, 2.0, 1.0, 2.0


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size and stopping rules; the update rule's coefficients are
    the module constants C1, C2, V_MAX and INIT_RANGE.

    `tol` is an absolute threshold on global-best improvement; once the
    improvement stays below it for `patience` consecutive iterations the
    search stops early.  So early stopping is not scale-invariant: a frame
    scaled by s stops at the same iteration only with `tol` * s^2.  Set
    ``tol=0`` to always run `max_iters` iterations.
    """

    n_particles: int = 60
    max_iters: int = 60
    tol: float = 1e-4
    patience: int = 5

    def __post_init__(self):
        for name, ok, rule in (
            ("n_particles", 1 <= self.n_particles <= MAX_PARTICLES, f"from 1 to {MAX_PARTICLES}"),
            ("max_iters", 1 <= self.max_iters <= MAX_ITERS, f"from 1 to {MAX_ITERS}"),
            ("tol", self.tol >= 0.0, ">= 0"),
            ("patience", self.patience >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(name, f"must be {rule}, got {getattr(self, name)}")


def _gram(D: np.ndarray, ale: AleConfig):
    """Batch D's cost statistics, lanes last: with V[n, k] = d[n - delay - k]
    over the m samples from warmup on, frame b's R[:, :, b] = Re(V^H V)/m,
    p[:, b] = Re(V^H d)/m and c[b] = mean|d|^2, so J(w) = c - 2w'p + w'Rw is
    the mean |e[n]|^2 of its residual under fixed weights w.  Each entry is
    one inner product of lag slices, so no regressor matrix is built."""
    R, p, c = np.empty((ale.taps, ale.taps, len(D))), np.empty((ale.taps, len(D))), np.empty(len(D))
    for b, d in enumerate(D):
        target, lags = _lags(d, ale)
        m = target.size
        for j in range(ale.taps):
            for k in range(j, ale.taps):
                R[j, k, b] = R[k, j, b] = np.vdot(lags[j], lags[k]).real / m
            p[j, b] = np.vdot(lags[j], target).real / m
        c[b] = np.vdot(target, target).real / m
    return R, p, c


def _scores(
    w: np.ndarray, R: np.ndarray, p: np.ndarray, c: np.ndarray, D: np.ndarray, rows: np.ndarray, ale: AleConfig
) -> np.ndarray:
    """(P,) costs of (L, P) weights, particle i scored on its frame's
    statistics, batch row rows[i]: R[:, :, rows[i]], p[:, rows[i]], c[rows[i]].

    Elementwise products and sums: a particle's cost does not depend on
    the other particles or lanes scored with it.  The products are formed
    particles last, where numpy's inner loops are long, and copied
    particles first before the sums, so that each particle's products are
    summed as one contiguous block, in numpy's order for an (N, L) swarm.
    A particle whose quadratic form has cancelled is recomputed as the
    power of its residual on its frame, D[rows[i]].  A cost that overflows
    to nan (inf - inf) is +inf, never a best; callers silence it.
    """
    prod = R.take(rows, axis=2)
    prod *= w[:, None]
    prod *= w[None]
    quad = prod.transpose(2, 0, 1).copy().sum(axis=(1, 2))
    c = c[rows]
    out = c - 2.0 * (w * p.take(rows, axis=1)).T.copy().sum(axis=1) + quad
    for i in np.flatnonzero(out < GRAM_FALLBACK_RATIO * (c + quad)):
        e = _residual(D[rows[i]], w[:, i], ale)
        out[i] = np.vdot(e, e).real / e.size
    out[np.isnan(out)] = np.inf
    return out


def _lane_best(pcost: np.ndarray, starts: np.ndarray, lane: np.ndarray):
    """Each lane's first particle of least cost, argmin's rule per segment, and that cost."""
    top = np.minimum.reduceat(pcost, starts)
    hits = np.flatnonzero(pcost == top[lane])
    return hits[np.searchsorted(hits, starts)], top


@np.errstate(over="ignore", invalid="ignore")
def pso_batch(
    D: np.ndarray, seeds: list[int], cfg: PsoConfig, ale: AleConfig, counts: list[int] | None = None
) -> tuple[np.ndarray, list[list[float]]]:
    """Search the frames of batch D (see ale._check_frame) for the weights
    minimizing each one's residual cost: frame b with default_rng(seeds[b])
    and counts[b] particles, cfg.n_particles each when `counts` is None.

    Starting positions are drawn uniformly in [-INIT_RANGE, INIT_RANGE]^L
    and each particle's best is its starting point.  Each iteration moves
    every particle by v' = v + C1*r1*(pbest - x) + C2*r2*(gbest - x),
    clamped to [-V_MAX, V_MAX] per component, then x' = x + v'; a particle
    draws one r1 and one r2 an iteration, shared by its weights.  A personal
    best moves only on a strictly lower cost; the global best moves to the
    first particle with the lowest personal best, and only when that is
    strictly below it.

    The swarms are (L, P) arrays, P the sum of the counts: lane b's
    particles are one contiguous segment of the particle axis, the lanes'
    segments in lane order.  Each lane has its own generator; an iteration
    draws every running lane's uniforms, in lane order, before any cost is
    computed.  A lane that stops early leaves the swarm arrays and draws
    nothing more; the frames and their statistics are never cut.  So a
    lane's result is bit for bit its frame searched alone, as a one-lane
    batch.  Returns (weights, histories): weights[b] is lane b's global
    best, a row of the (B, L) array, and histories[b] its global-best cost
    after each iteration, whose last entry is the cost of weights[b].
    """
    _check_frame(D, ale)
    counts = [cfg.n_particles] * len(seeds) if counts is None else list(counts)
    if not len(D) == len(seeds) == len(counts):
        raise ValueError(f"need B seeds and B counts for B = {len(D)} frames, got {len(seeds)} and {len(counts)}")
    for n in counts:  # checked before the (L, P) swarm is allocated
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_PARTICLES):
            raise ValueError(f"particle counts must be integers from 1 to {MAX_PARTICLES}, got {n}")
    R, p, c = _gram(D, ale)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x = np.hstack([rng.uniform(-INIT_RANGE, INIT_RANGE, size=(n, ale.taps)).T for rng, n in zip(rngs, counts)])
    live, counts = np.arange(len(seeds)), np.array(counts)  # each running lane's batch row and particle count
    lane, starts = np.repeat(live, counts), np.cumsum(counts) - counts  # each particle's lane; each lane's start
    v, pbest, pcost = np.zeros_like(x), x.copy(), _scores(x, R, p, c, D, live[lane], ale)
    best, gcost = _lane_best(pcost, starts, lane)
    gbest = pbest.take(best, axis=1)
    history, stall = np.empty((cfg.max_iters, len(seeds))), np.zeros(len(seeds), dtype=int)
    weights, histories = np.empty((len(seeds), ale.taps)), [None] * len(seeds)
    draws = None  # the draw buffer and each lane's rows of it, made anew with the segments
    for it in range(cfg.max_iters):
        if draws is None:  # one r1 and one r2 per particle, shared by its components
            r = np.empty((lane.size, 2))
            r1, r2 = r.T
            draws = [(rngs[b], r[s : s + n]) for b, s, n in zip(live.tolist(), starts.tolist(), counts.tolist())]
        for rng, out in draws:
            rng.random(out=out)  # as uniform(size=(n, 2, 1)), value for value
        v = np.clip(v + C1 * r1 * (pbest - x) + C2 * r2 * (gbest.take(lane, axis=1) - x), -V_MAX, V_MAX)
        x = x + v
        cost = _scores(x, R, p, c, D, live[lane], ale)
        better = cost < pcost
        np.copyto(pcost, cost, where=better)
        np.copyto(pbest, x, where=better)
        best, top = _lane_best(pcost, starts, lane)
        improved = top < gcost
        gbest = np.where(improved, pbest.take(best, axis=1), gbest)
        prev, gcost = gcost, np.where(improved, top, gcost)
        stall = np.where(prev - gcost >= cfg.tol, 0, stall + 1)  # inf - inf: no improvement
        history[it, live] = gcost
        done = (cfg.tol > 0.0) & (stall >= cfg.patience) | (it + 1 == cfg.max_iters)
        if not done.any():
            continue
        for row in np.flatnonzero(done):
            weights[live[row]], histories[live[row]] = gbest[:, row], history[: it + 1, live[row]].tolist()
        keep, cut = np.flatnonzero(~done), np.flatnonzero(~done[lane])
        if not keep.size:
            break
        x, v, pbest, pcost = (a.take(cut, axis=-1) for a in (x, v, pbest, pcost))
        gbest, gcost, stall, live, counts = (a.take(keep, axis=-1) for a in (gbest, gcost, stall, live, counts))
        lane, starts, draws = np.repeat(np.arange(keep.size), counts), np.cumsum(counts) - counts, None
    return weights, histories
