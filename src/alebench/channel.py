"""Channel impairments: SNR-calibrated AWGN and a memoryless nonlinearity.

The nonlinearity is a third-order distortion plus additive low-frequency
interferer tones, which is the minimal model that puts extra spectrum at
the low end of the band.  Three named profiles ship as defaults, one per
carrier band label used by the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonlinearProfile",
    "DEFAULT_PROFILES",
    "add_awgn",
    "apply_nonlinear",
]


@dataclass(frozen=True)
class NonlinearProfile:
    """Memoryless cubic distortion plus additive interferer tones.

    Parameters
    ----------
    cubic_gain : float
        Coefficient of the x*|x|^2 term, >= 0.
    tones : tuple of (amplitude, normalized_frequency, phase)
        Complex tones added to the signal; frequency in (0, 0.5), phase finite.
    """

    cubic_gain: float = 0.0
    tones: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not (self.cubic_gain >= 0.0 and math.isfinite(self.cubic_gain)):
            raise ValueError(f"cubic_gain must be finite and >= 0, got {self.cubic_gain}")
        for amp, freq, phase in self.tones:
            if not (amp >= 0.0 and math.isfinite(amp)):
                raise ValueError(f"tone amplitude must be finite and >= 0, got {amp}")
            if not (0.0 < freq < 0.5):
                raise ValueError(f"tone frequency must lie in (0, 0.5), got {freq}")
            if not math.isfinite(phase):
                raise ValueError(f"tone phase must be finite, got {phase}")


# Tone placements and cubic gains are this library's defaults; the three
# names only distinguish result rows, they do not change the baseband model.
DEFAULT_PROFILES: dict[str, NonlinearProfile] = {
    "60MHz": NonlinearProfile(cubic_gain=0.05, tones=((0.6, 0.012, 0.0),)),
    "2.4GHz": NonlinearProfile(cubic_gain=0.10, tones=((0.5, 0.031, 0.9), (0.3, 0.057, 2.1))),
    "5.8GHz": NonlinearProfile(cubic_gain=0.15, tones=((0.7, 0.023, 0.4), (0.4, 0.071, 1.7))),
}


# The largest finite |snr_db| a config may ask for.  The runner's frames have
# power from 0.0025 (the 5.8GHz tones leave 0.05 of a unit symbol) to 5.1, so
# within it their noise variance lies in [2.5e-303, 5.1e300]: finite, positive.
SNR_LIMIT_DB = 3000.0


def add_awgn(x: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add complex white Gaussian noise calibrated to `snr_db` to one frame.

    The total noise variance is mean(|x|^2) / 10^(snr_db/10), split equally
    between the real and imaginary parts.  Draws consume the generator in
    strict sample order (re, im per sample), so output is reproducible.
    ``snr_db = inf`` adds no noise; an input power, or a noise variance, not
    finite and positive (nan, -inf or far-off SNR) raises ValueError, and so
    does input that is not one non-empty 1-D frame: frames stacked in one
    call would share one power and one noise stream.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"input must be a non-empty 1-D stream, got shape {x.shape}")
    power = float(np.mean(np.abs(x) ** 2))
    if not 0.0 < power < math.inf:  # 0, or nan or inf from a non-finite sample
        raise ValueError(f"input stream power must be finite and > 0, got {power}")
    if snr_db == math.inf:
        return x.copy()
    with np.errstate(all="ignore"):  # 10^400 is inf, 10^-400 is 0
        sigma2 = power / np.float64(10.0) ** (snr_db / 10.0)
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"snr_db {snr_db} gives no finite positive noise variance at signal power {power}")
    noise = np.random.default_rng(seed).standard_normal(2 * x.size).view(np.complex128)
    noise *= math.sqrt(sigma2 / 2.0)
    noise += x
    return noise


def apply_nonlinear(x: np.ndarray, profile: NonlinearProfile) -> np.ndarray:
    """Apply the cubic-plus-tones impairment to a frame, or to frames along
    the last axis, each frame's tones starting at its first sample; the
    identity profile returns each sample of finite |x|^2 equal to itself
    (a -0 part may come back +0).  Each tone is computed once per call."""
    x = np.asarray(x, dtype=np.complex128)
    # x + g * x * |x|^2, evaluated in place to hold one temporary per frame
    y = profile.cubic_gain * x
    y *= np.abs(x) ** 2
    y += x
    n = np.arange(x.shape[-1])
    for amp, freq, phase in profile.tones:
        y += amp * np.exp(1j * (2.0 * np.pi * freq * n + phase))
    return y
