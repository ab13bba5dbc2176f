"""Machine-speed probe that puts end-to-end times on a common scale.

The small shared VM this benchmark was built on slows down by up to
half for tens of seconds at a time, as long as a whole run, so no
statistic within one run can remove the swing.  Instead the benchmark
times two fixed kernels right before and right after each timed workload
run, and rescales the run's wall time by their slowdown against
reference times:

    slowdown = (1 - share) * python_s / PYTHON_REFERENCE_S
             + share * numpy_s / NUMPY_REFERENCE_S
    scaled   = measured / mean(slowdown before, slowdown after)

where python_s and numpy_s are each the fastest of three timings.

The kernels mirror the program's two kinds of work. One is a per-sample
Python loop shaped like the LMS update. The other is whole-frame complex
convolutions like the PSO cost. Each workload weights them by its share
of convolution-bound time, because the swings hit interpreter-bound code
hardest.  The probe never calls the program, so a change to alebench
moves scaled times exactly as much as raw ones.  The reference times are
the kernels' typical times on that VM with one BLAS thread, so scaled
seconds read close to raw seconds there; raw times are reported next to
the scaled ones.

Set-up time (a fresh interpreter importing alebench) follows neither
kernel.  It is scaled the same way by a probe of its own kind: a fresh
interpreter importing a fixed set of standard-library modules
(child.py import_probe), spawned right after each set-up sample:

    scaled set-up = median(setup_s / import_s) * IMPORT_REFERENCE_S
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PYTHON_REFERENCE_S = 0.018
NUMPY_REFERENCE_S = 0.018
IMPORT_REFERENCE_S = 0.027
_LMS_SAMPLES = 2800
_CONVOLUTIONS = 70
# Each kernel runs this many times per probe and its fastest time counts:
# a brief stall slows one timing and the others ignore it, while a slow
# phase of the machine slows them all.
_REPEATS = 3


class SpeedProbe:
    def __init__(self, numpy_share: float):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(_LMS_SAMPLES) + 1j * rng.standard_normal(_LMS_SAMPLES)
        self._frame = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        self._w = np.full(5, 0.1)
        self.numpy_share = numpy_share
        self.samples = []  # (python_s, numpy_s) per probe

    def _python_s(self) -> float:
        start = time.perf_counter()
        x, w = self._x, np.zeros(5)
        for n in range(5, x.size):
            v = x[n - 5 : n][::-1]
            e = x[n] - np.dot(w, v)
            w = w + 1e-3 * np.real(e * np.conj(v))
            np.max(np.abs(w))
        return time.perf_counter() - start

    def _numpy_s(self) -> float:
        start = time.perf_counter()
        for _ in range(_CONVOLUTIONS):
            y = np.convolve(self._frame, self._w)[: self._frame.size]
            float(np.mean(np.abs(self._frame - y) ** 2))
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Time the kernels now; how much slower than reference they ran."""
        python_s = min(self._python_s() for _ in range(_REPEATS)) if self.numpy_share < 1.0 else 0.0
        numpy_s = min(self._numpy_s() for _ in range(_REPEATS)) if self.numpy_share > 0.0 else 0.0
        self.samples.append((python_s, numpy_s))
        return ((1.0 - self.numpy_share) * python_s / PYTHON_REFERENCE_S
                + self.numpy_share * numpy_s / NUMPY_REFERENCE_S)


def rescale_setup(pairs) -> float:
    """Set-up seconds at reference speed, from (setup_s, import_s) pairs."""
    return statistics.median(setup / probe for setup, probe in pairs) * IMPORT_REFERENCE_S
