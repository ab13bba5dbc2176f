"""Independent reference computations used to check the library.

Everything here is written as plainly as possible (explicit loops, direct
formulas, stacked least squares) and deliberately shares no code with the
implementation it checks; only the swarm's fixed coefficients are read
from it.
"""

import numpy as np

from alebench import pso


def brute_force_residual(w, d, taps, delay):
    """Residual d[n] - sum_k w[k] * d[n - delay - k] for n from
    delay + taps - 1 on, by direct double loop over samples and taps."""
    d = np.asarray(d)
    w = np.asarray(w)
    out = []
    for n in range(delay + taps - 1, len(d)):
        acc = 0.0 + 0.0j
        for k in range(taps):
            acc += w[k] * d[n - delay - k]
        out.append(d[n] - acc)
    return np.array(out)


def brute_force_cost(w, d, taps, delay):
    """Mean squared residual, summed sample by sample in a plain loop."""
    total = 0.0
    count = 0
    for e in brute_force_residual(w, d, taps, delay):
        total += abs(e) ** 2
        count += 1
    return total / count


def loop_pso(d, taps, delay, cfg, seed):
    """Particle-by-particle swarm search scored with brute_force_cost.

    Reads the swarm size and stopping rules off `cfg`, and the update
    rule's coefficients off `alebench.pso` when called, so a test that
    patches one compares like with like.  Draws from the generator of
    `seed` in the library's documented order: the (N, taps) starting
    positions, then per iteration all (N, 2) uniforms before any cost.
    Returns the global-best weights and the global-best cost after each
    iteration.
    """
    c1, c2, v_max, init_range = pso.C1, pso.C2, pso.V_MAX, pso.INIT_RANGE
    rng = np.random.default_rng(seed)
    n = cfg.n_particles
    start = rng.uniform(-init_range, init_range, size=(n, taps))
    pos = [[float(x) for x in row] for row in start]
    vel = [[0.0] * taps for _ in range(n)]
    pbest = [list(x) for x in pos]
    pcost = [brute_force_cost(x, d, taps, delay) for x in pos]
    g = 0
    for i in range(n):
        if pcost[i] < pcost[g]:
            g = i
    gbest = list(pbest[g])
    gcost = pcost[g]
    history = []
    stall = 0
    for _ in range(cfg.max_iters):
        draws = rng.uniform(size=(n, 2))
        for i in range(n):
            r1, r2 = draws[i]
            for k in range(taps):
                v = (
                    vel[i][k]
                    + c1 * r1 * (pbest[i][k] - pos[i][k])
                    + c2 * r2 * (gbest[k] - pos[i][k])
                )
                vel[i][k] = min(max(v, -v_max), v_max)
                pos[i][k] = pos[i][k] + vel[i][k]
        for i in range(n):
            cost = brute_force_cost(pos[i], d, taps, delay)
            if cost < pcost[i]:
                pcost[i] = cost
                pbest[i] = list(pos[i])
        prev = gcost
        for i in range(n):
            if pcost[i] < gcost:
                gcost = pcost[i]
                gbest = list(pbest[i])
        history.append(gcost)
        if prev - gcost >= cfg.tol:  # inf - inf is nan: no improvement
            stall = 0
        else:
            stall += 1
        if cfg.tol > 0.0 and stall >= cfg.patience:
            break
    return np.array(gbest), history


def loop_lms(d, taps, delay, mu, bound=1e6):
    """Sample-by-sample LMS by explicit loops over samples and taps.

    Weight k multiplies d[n - delay - k]; adaptation starts from zeros at
    the first sample whose window lies inside the frame.  Returns
    (weights, y), or (index, peak) at the first sample after whose update
    some |weight| exceeds `bound`.
    """
    d = [complex(z) for z in d]
    w = [0.0] * taps
    y = [0j] * len(d)
    for n in range(delay + taps - 1, len(d)):
        acc = 0j
        for k in range(taps):
            acc += w[k] * d[n - delay - k]
        y[n] = acc
        e = d[n] - acc
        for k in range(taps):
            w[k] += mu * (e * d[n - delay - k].conjugate()).real
        peak = max(abs(x) for x in w)
        if peak > bound:
            return n, peak
    return np.array(w), np.array(y)


def real_least_squares_weights(d, taps, delay):
    """Real weight vector minimizing the frame's residual, by stacked LS."""
    d = np.asarray(d, dtype=np.complex128)
    start = delay + taps - 1
    rows = []
    targets = []
    for n in range(start, len(d)):
        rows.append([d[n - delay - k] for k in range(taps)])
        targets.append(d[n])
    v = np.array(rows)
    t = np.array(targets)
    a = np.vstack([v.real, v.imag])
    b = np.concatenate([t.real, t.imag])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


def squared_error_gradient_fd(w, d_n, v_n, h=1e-6):
    """Central finite differences of e^2 = (d_n - w.v)^2 for real signals."""
    w = np.asarray(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for k in range(len(w)):
        wp = w.copy()
        wm = w.copy()
        wp[k] += h
        wm[k] -= h
        ep = (d_n - np.dot(wp, v_n)) ** 2
        em = (d_n - np.dot(wm, v_n)) ** 2
        grad[k] = (ep - em) / (2.0 * h)
    return grad


def nearest_point(samples, points):
    """Index of the point nearest each sample, by a plain loop over the
    points: the first point of least |s - p| wins.  The distance is numpy's
    complex magnitude of the complex128 difference, which need not round as
    Python's abs does."""
    out = []
    for s in samples:
        best, best_dist = 0, None
        for i, p in enumerate(points):
            dist = np.abs(np.complex128(s) - np.complex128(p))
            if best_dist is None or dist < best_dist:
                best, best_dist = i, dist
        out.append(best)
    return np.array(out)


def count_ones(bits):
    """Plain counting loop, for checking bit-stream statistics."""
    total = 0
    for b in bits:
        total += int(b)
    return total


def wiener_floor(d, taps, delay):
    """Least cost any fixed real weights reach on the frame, J* = c - p'R^-1 p.

    R[j][k] = mean Re(conj(v_j) v_k), p[k] = mean Re(conj(v_k) d[n]) and
    c = mean |d[n]|^2, by plain loops over the valid samples n, where
    v_k = d[n - delay - k]; the cost of weights w is c - 2p'w + w'Rw.
    """
    d = [complex(z) for z in d]
    start = delay + taps - 1
    count = len(d) - start
    R = [[0.0] * taps for _ in range(taps)]
    p = [0.0] * taps
    c = 0.0
    for n in range(start, len(d)):
        v = [d[n - delay - k] for k in range(taps)]
        for j in range(taps):
            p[j] += (v[j].conjugate() * d[n]).real / count
            for k in range(taps):
                R[j][k] += (v[j].conjugate() * v[k]).real / count
        c += abs(d[n]) ** 2 / count
    p = np.array(p)
    return c - p @ np.linalg.solve(np.array(R), p)
