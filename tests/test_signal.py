"""Tests for bit generation, PSK mapping, and hard-decision demodulation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alebench.signal import (
    ModConfig,
    constellation,
    demodulate,
    generate_bits,
    modulate,
)
from oracles import count_ones, nearest_point


class TestGenerateBits:
    def test_deterministic_for_same_seed(self):
        a = generate_bits(8, seed=7)
        b = generate_bits(8, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.size == 8

    def test_different_seeds_differ(self):
        a = generate_bits(64, seed=1)
        b = generate_bits(64, seed=2)
        assert not np.array_equal(a, b)

    def test_balanced_for_long_streams(self):
        bits = generate_bits(10_000, seed=3)
        assert 0.45 <= count_ones(bits) / 10_000 <= 0.55

    def test_values_are_binary(self):
        bits = generate_bits(1000, seed=4)
        assert set(np.unique(bits)) <= {0, 1}

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_bits(0, seed=5)


class TestModulate:
    def test_bpsk_antipodal_map(self):
        symbols = modulate(np.array([1, 0, 1]), ModConfig(m=2))
        np.testing.assert_allclose(symbols, [1.0, -1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_point_k_at_angle_2pi_k_over_m(self, m):
        """Point 0 is exactly 1 and the others step counter-clockwise by
        2*pi/m: no rotation is added to the constellation."""
        points = constellation(ModConfig(m=m))
        assert points[0] == 1.0
        np.testing.assert_allclose(np.mod(np.angle(points), 2 * np.pi), 2 * np.pi * np.arange(m) / m, atol=1e-15)
        np.testing.assert_allclose(np.abs(points), 1.0, atol=1e-15)

    def test_unit_magnitude(self):
        bits = generate_bits(300, seed=6)
        for m in (2, 4, 8):
            symbols = modulate(bits[: 300 - 300 % int(np.log2(m))], ModConfig(m=m))
            np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-12)

    def test_unit_mean_power(self):
        symbols = modulate(generate_bits(4096, seed=8), ModConfig(m=2))
        assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) < 1e-12

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 1, 0]), ModConfig(m=4))

    @pytest.mark.parametrize(
        "bits, m",
        [([0, 2], 4), ([-1, 0], 2), ([2], 2), ([0.5, 1.0], 2), ([True, 3], 2)],
        ids=["2 at m=4", "-1", "2 at m=2", "fraction", "3"],
    )
    def test_bit_that_is_not_0_or_1_rejected(self, bits, m):
        """Unchecked, 2 at m=4 maps to a symbol, -1 wraps to the last point
        and 2 at m=2 raises IndexError."""
        with pytest.raises(ValueError, match="0 or 1"):
            modulate(np.array(bits), ModConfig(m=m))

    @pytest.mark.parametrize(
        "bits", [np.array([[0, 1], [1, 0]]), np.array(1), np.array([])], ids=["2-d", "0-d", "empty"]
    )
    def test_bits_that_are_not_one_1d_stream_rejected(self, bits):
        """Unchecked, a (2, 2) block is flattened into 4 symbols, a 0-d bit
        gives one symbol and an empty array an empty frame."""
        with pytest.raises(ValueError, match="non-empty 1-D"):
            modulate(bits, ModConfig())

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            ModConfig(m=3)
        with pytest.raises(ValueError):
            ModConfig(m=1)

    def test_order_capped_at_16_before_any_allocation(self):
        """A 2**30-point constellation would take 16 GiB; the order is
        rejected in the constructor, before anything is built."""
        assert ModConfig(m=16).bits_per_symbol == 4
        with pytest.raises(ValueError, match="from 2 to 16"):
            ModConfig(m=32)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="from 2 to 16"):
                ModConfig(m=2**30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDemodulate:
    def test_bpsk_sign_decision(self):
        bits = demodulate(np.array([0.9, -1.2]), ModConfig(m=2))
        np.testing.assert_array_equal(bits, [1, 0])

    def test_tie_at_zero_decides_one(self):
        bits = demodulate(np.array([0.0 + 0.0j]), ModConfig(m=2))
        np.testing.assert_array_equal(bits, [1])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            demodulate(np.array([]), ModConfig(m=2))

    @pytest.mark.parametrize(
        "samples", [np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]), np.array(1.0)], ids=["2-d", "0-d"]
    )
    def test_stream_that_is_not_1d_rejected(self, samples):
        """Unchecked, a (3, 2) block compares column k with point k alone and
        decides all six samples as bit 1, and a 0-d sample raises IndexError."""
        with pytest.raises(ValueError, match="1-D"):
            demodulate(samples, ModConfig(m=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
    def test_non_finite_sample_rejected(self, bad):
        """Unchecked, a nan sample is no nearer to any point than to another,
        and would decide whatever the search started from."""
        with pytest.raises(ValueError, match="finite"):
            demodulate(np.array([1.0, bad, -1.0]), ModConfig(m=4))

    def test_near_ties_decide_bit_one_at_m2(self):
        """Both samples are as far from +1 as from -1 once rounded, so the
        first point, +1, takes them: a sign test on the real part would
        decide bit 0."""
        bits = demodulate(np.array([-0.5 + 1e20j, -1e-17 + 0.5j]), ModConfig(m=2))
        np.testing.assert_array_equal(bits, [1, 1])

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_matches_nearest_point_oracle(self, m):
        """Bit for bit the decisions of the plain-loop nearest point, on
        noise, 0j, the points themselves, the midpoints between adjacent
        points (at several radii) and the two near-ties of BPSK."""
        cfg = ModConfig(m=m)
        points = constellation(cfg)
        rng = np.random.default_rng(27)
        midpoints = (points + np.roll(points, -1)) / 2
        samples = np.concatenate([
            rng.normal(size=400) + 1j * rng.normal(size=400),
            [0j, -0.5 + 1e20j, -1e-17 + 0.5j],
            points,
            *(radius * midpoints for radius in (1.0, 1e-300, 3.0, 1e20)),
        ])
        expected = demodulate(points[nearest_point(samples, points)], cfg)
        np.testing.assert_array_equal(demodulate(samples, cfg), expected)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_noiseless_round_trip(self, m):
        k = int(np.log2(m))
        bits = generate_bits(120 * k, seed=9)
        recovered = demodulate(modulate(bits, ModConfig(m=m)), ModConfig(m=m))
        np.testing.assert_array_equal(recovered, bits)

    @given(
        m_exp=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_round_trip_property(self, m_exp, data):
        m = 2**m_exp
        k = int(np.log2(m))
        bits = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=k, max_size=20 * k).filter(
                    lambda b: len(b) % k == 0
                )
            )
        )
        cfg = ModConfig(m=m)
        np.testing.assert_array_equal(demodulate(modulate(bits, cfg), cfg), bits)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_bit_map_pinned(self, m):
        """Point i carries group 1 - i at m=2 (the antipodal map) and the
        reflected Gray code i ^ (i >> 1) otherwise, most significant bit
        first.  The m=4 code is its own inverse; from m=8 on, a map that
        used the inverse table would fail here."""
        cfg = ModConfig(m=m)
        k = cfg.bits_per_symbol
        for i, point in enumerate(constellation(cfg)):
            group = 1 - i if m == 2 else i ^ (i >> 1)
            bits = [(group >> shift) & 1 for shift in range(k - 1, -1, -1)]
            np.testing.assert_array_equal(demodulate(np.array([point]), cfg), bits)
            assert modulate(np.array(bits), cfg)[0] == point

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_gray_adjacency(self, m):
        """Neighbouring constellation points carry bit groups one bit apart."""
        cfg = ModConfig(m=m)
        points = constellation(cfg)
        point_bits = [demodulate(np.array([p]), cfg) for p in points]
        for i in range(m):
            a = point_bits[i]
            b = point_bits[(i + 1) % m]
            assert int(np.sum(a != b)) == 1

