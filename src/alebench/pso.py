"""Particle-swarm search for the enhancer weight vector.

A particle's position is a candidate weight vector; its cost is the mean
squared residual of the whole frame filtered with those weights held fixed.
That cost is a quadratic in the real weights, so each frame is reduced once
to its sufficient statistics and every particle then costs O(L^2).  The
swarm is held as (N, L) arrays, one row per particle.  Velocities start at
zero, and every random draw of an iteration happens before any cost is
computed, so a search is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ale import AleConfig, _check_frame, _check_weights

__all__ = ["PsoConfig", "SwarmState", "frame_costs", "evaluate_cost", "run_pso"]

# A quadratic-form cost below this fraction of c + w'Rw has lost too many
# digits to cancellation and is recomputed from the residual directly.
GRAM_FALLBACK_RATIO = 1e-6


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, learning coefficients, bounds, and stopping rules.

    `tol` is an absolute threshold on global-best improvement; once the
    improvement stays below it for `patience` consecutive iterations the
    search stops early.  Set ``tol=0`` to always run `max_iters` iterations.
    The previous velocity carries weight `inertia`, exactly 1 by default.
    `c1`, `c2`, `inertia` and `init_range` must be finite; ``v_max = inf``
    turns the velocity clamp off.
    """

    n_particles: int = 60
    c1: float = 2.0
    c2: float = 2.0
    max_iters: int = 60
    tol: float = 1e-4
    patience: int = 5
    init_range: float = 2.0
    v_max: float = 1.0
    seed: int = 0
    inertia: float = 1.0
    per_dimension_draws: bool = False

    def __post_init__(self):
        for name in ("c1", "c2", "inertia", "init_range"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.c1 >= 0.0 and self.c2 >= 0.0):
            raise ValueError("learning coefficients must be >= 0")
        if not self.init_range > 0.0:
            raise ValueError(f"init_range must be > 0, got {self.init_range}")
        if not self.v_max > 0.0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class SwarmState:
    """The swarm a search ended with: positions, velocities and personal
    bests as (N, L) and (N,) arrays, the global best, and the global-best
    cost after each iteration."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_cost: np.ndarray
    gbest_position: np.ndarray
    gbest_cost: float
    history: list[float]


def frame_costs(d: np.ndarray, ale: AleConfig):
    """Cost function of one frame: (N, L) weights to N mean squared residuals.

    With V[n, k] = d[n - delay - k] over the m valid samples, the cost is
    J(w) = c - 2w'p + w'Rw where R = Re(V^H V)/m, p = Re(V^H d)/m and
    c = mean|d|^2.  Each entry is one inner product of lagged slices of d,
    so no regressor matrix is built.
    """
    d = _check_frame(d, ale)
    target = d[ale.warmup :]
    lags = [d[ale.warmup - ale.delay - k : d.size - ale.delay - k] for k in range(ale.taps)]
    m = target.size
    R = np.empty((ale.taps, ale.taps))
    for j in range(ale.taps):
        for k in range(j, ale.taps):
            R[j, k] = R[k, j] = np.vdot(lags[j], lags[k]).real / m
    p = np.array([np.vdot(lag, target).real for lag in lags]) / m
    c = np.vdot(target, target).real / m

    def costs(positions: np.ndarray) -> np.ndarray:
        w = np.asarray(positions, dtype=np.float64)
        # elementwise products and row sums: a row's cost does not depend
        # on the other rows scored with it
        quad = (w[:, :, None] * R * w[:, None, :]).sum(axis=(1, 2))
        out = c - 2.0 * (w * p).sum(axis=1) + quad
        for i in np.flatnonzero(out < GRAM_FALLBACK_RATIO * (c + quad)):
            e = target - sum(wk * lag for wk, lag in zip(w[i], lags))
            out[i] = np.vdot(e, e).real / m
        return out

    return costs


def evaluate_cost(w: np.ndarray, d: np.ndarray, ale: AleConfig) -> float:
    """Mean |e[n]|^2 over the fully-populated range, weights held fixed."""
    w = _check_weights(w, ale)
    return float(frame_costs(d, ale)(w[None])[0])


def run_pso(d: np.ndarray, cfg: PsoConfig, ale: AleConfig) -> tuple[np.ndarray, SwarmState]:
    """Search for the weight vector minimizing the frame's residual cost.

    Starting positions are drawn uniformly in [-init_range, init_range]^L
    and each particle's best is its starting point.  Each iteration moves
    every particle by
    v' = inertia*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), clamped to
    [-v_max, v_max] per component, then x' = x + v'.  A personal best moves
    only on a strictly lower cost; the global best moves to the first
    particle with the lowest personal best, and only when that is strictly
    below it.  Returns the global-best weights and the final swarm, whose
    `history` holds the global-best cost after each iteration.
    """
    costs = frame_costs(d, ale)
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-cfg.init_range, cfg.init_range, size=(cfg.n_particles, ale.taps))
    v = np.zeros_like(x)
    pbest, pcost = x.copy(), costs(x)
    best = int(np.argmin(pcost))
    gbest, gcost = x[best].copy(), float(pcost[best])
    history = []
    # (N, 2, 1) consumes the stream exactly as (N, 2) does; r1 and r2 are
    # (N, 1) for one draw per particle, (N, L) for one per component
    draw_shape = (cfg.n_particles, 2, ale.taps if cfg.per_dimension_draws else 1)
    stall = 0
    for _ in range(cfg.max_iters):
        r1, r2 = rng.uniform(size=draw_shape).transpose(1, 0, 2)
        v = np.clip(cfg.inertia * v + cfg.c1 * r1 * (pbest - x) + cfg.c2 * r2 * (gbest - x),
                    -cfg.v_max, cfg.v_max)
        x = x + v
        cost = costs(x)
        better = cost < pcost
        pcost[better] = cost[better]
        pbest[better] = x[better]
        best = int(np.argmin(pcost))
        prev = gcost
        if pcost[best] < gcost:
            gbest, gcost = pbest[best].copy(), float(pcost[best])
        history.append(gcost)
        stall = stall + 1 if prev - gcost < cfg.tol else 0
        if cfg.tol > 0.0 and stall >= cfg.patience:
            break
    return gbest.copy(), SwarmState(x, v, pbest, pcost, gbest, gcost, history)
