"""Bit streams, M-PSK symbol mapping, and hard-decision demodulation.

Symbols live on the unit circle, one symbol per sample.  The bit-to-point
assignment is Gray coded so that neighbouring constellation points differ
in exactly one bit.  For M=2 the convention is fixed to the antipodal map
bit 0 -> -1, bit 1 -> +1, with a sample at exactly 0 deciding bit 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ModConfig",
    "generate_bits",
    "modulate",
    "demodulate",
    "constellation",
]


@dataclass(frozen=True)
class ModConfig:
    """Constellation order of the PSK mapper; point k sits at angle 2*pi*k/m.

    Parameters
    ----------
    m : int
        Constellation order: a power of two from 2 to 16.
    """

    m: int = 2

    def __post_init__(self):
        if not 2 <= self.m <= 16 or (self.m & (self.m - 1)) != 0:
            raise ConfigError("m", f"must be a power of two from 2 to 16, got {self.m}")

    @property
    def bits_per_symbol(self) -> int:
        return self.m.bit_length() - 1


def constellation(cfg: ModConfig) -> np.ndarray:
    """Constellation points indexed by position m on the unit circle."""
    m = np.arange(cfg.m)
    return np.exp(1j * (2.0 * np.pi * m / cfg.m))


def _groups(cfg: ModConfig) -> np.ndarray:
    """The bit group each constellation point carries, by point index, as uint8.

    For m=2 the antipodal convention (point at 0 -> 1, point at pi -> 0)
    is pinned so that BER runs are reproducible across implementations.
    Larger constellations use the standard reflected Gray code.
    """
    idx = np.arange(cfg.m, dtype=np.uint8)
    return np.array([1, 0], dtype=np.uint8) if cfg.m == 2 else idx ^ (idx >> 1)


def generate_bits(count: int, seed: int) -> np.ndarray:
    """Draw `count` equiprobable bits, reproducibly for a given seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def modulate(bits: np.ndarray, cfg: ModConfig) -> np.ndarray:
    """Map a bit stream to unit-magnitude PSK symbols.

    Bits are consumed most-significant first in groups of log2(m).

    Raises
    ------
    ValueError
        If the bits are not one non-empty 1-D stream, the stream length is
        not divisible by the group size, or a bit is neither 0 nor 1.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError(f"can only modulate a non-empty 1-D stream, got shape {bits.shape}")
    k = cfg.bits_per_symbol
    if bits.size % k != 0:
        raise ValueError(
            f"bit count {bits.size} not divisible by bits per symbol {k}"
        )
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    values = bits[::k].astype(np.intp)
    for i in range(1, k):
        values = (values << 1) | bits[i::k].astype(np.intp)
    return constellation(cfg)[np.argsort(_groups(cfg))[values]]


def demodulate(samples: np.ndarray, cfg: ModConfig) -> np.ndarray:
    """Hard-decide each sample to the nearest constellation point.

    Ties resolve to the lowest point index, which for m=2 means a sample
    at exactly 0 decides bit 1.  Each point's bit group is read from the
    table `modulate` inverts.  Samples must be finite.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError(f"can only demodulate a non-empty 1-D stream, got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    to_group = _groups(cfg)
    # A running minimum of |s - p| over the points in index order: a point
    # takes a sample only when strictly nearer, so the lowest index of equal
    # distances wins, as in an argmin.  Every call after the first writes
    # into a buffer of one entry per sample, so no (n, m) array is made.
    points = constellation(cfg)
    nearest = np.abs(samples - points[0])
    values = np.full(samples.size, to_group[0])
    diff = np.empty(samples.size, dtype=np.complex128)
    dist = np.empty(samples.size)
    closer = np.empty(samples.size, dtype=bool)
    for i in range(1, cfg.m):
        np.abs(np.subtract(samples, points[i], out=diff), out=dist)
        np.less(dist, nearest, out=closer)
        np.minimum(nearest, dist, out=nearest)
        np.copyto(values, to_group[i], where=closer)
    k = cfg.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint8)
    return ((values[:, None] >> shifts) & 1).reshape(-1)
