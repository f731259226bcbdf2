"""Tests for fixed-point encodings and bit manipulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sc.encoding import (
    bits_msb_first,
    dequantize_signed,
    dequantize_unipolar,
    from_offset_binary,
    pack_bits_msb_first,
    quantize_signed,
    quantize_unipolar,
    signed_range,
    to_offset_binary,
    unipolar_range,
)


class TestRanges:
    def test_signed_range(self):
        assert signed_range(4) == (-8, 7)
        assert signed_range(1) == (-1, 0)

    def test_unipolar_range(self):
        assert unipolar_range(4) == (0, 15)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            signed_range(0)


class TestQuantizeSigned:
    def test_scalar_values(self):
        assert quantize_signed(0.5, 4) == 4
        assert quantize_signed(-1.0, 4) == -8
        assert quantize_signed(0.0, 4) == 0

    def test_saturation(self):
        assert quantize_signed(5.0, 4) == 7
        assert quantize_signed(-5.0, 4) == -8

    def test_array(self):
        out = quantize_signed(np.array([0.5, -0.25]), 4)
        assert out.tolist() == [4, -2]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_signed(np.array([np.nan]), 4)
        with pytest.raises(ValueError):
            quantize_signed(np.array([np.inf]), 4)
        with pytest.raises(ValueError):
            quantize_signed(np.array([0.5, -np.inf]), 4, scale=0.5)

    def test_scale_divides_first(self):
        x = np.array([0.3, -1.1, 2.5, 7.9])
        for scale in (0.5, 2.0, 0.3):
            assert np.array_equal(quantize_signed(x, 8, scale=scale), quantize_signed(x / scale, 8))

    def test_finite_overflow_saturates_without_warning(self):
        """``x / scale`` and ``x / scale * 2**(N-1)`` may overflow float64.

        The suite turns ``RuntimeWarning`` into an error, so an overflow
        warning would fail this test as well as a wrong rail.
        """
        huge = np.array([1.7e308, -1.7e308, np.finfo(np.float64).max])
        assert quantize_signed(huge, 8, scale=0.5).tolist() == [127, -128, 127]
        assert quantize_signed(huge, 8).tolist() == [127, -128, 127]

    @given(st.floats(-1.0, 0.999), st.integers(2, 12))
    def test_quantization_error_bounded(self, x, n):
        q = quantize_signed(x, n)
        lsb = 2.0 ** -(n - 1)
        # round-to-nearest inside the range; values above the top code
        # saturate and may be up to one LSB off
        bound = lsb / 2 if x <= 1.0 - lsb else lsb
        assert abs(dequantize_signed(q, n) - x) <= bound + 1e-12

    @given(st.integers(2, 12), st.integers())
    def test_roundtrip_integers(self, n, seed):
        lo, hi = signed_range(n)
        v = lo + (seed % (hi - lo + 1))
        assert quantize_signed(dequantize_signed(v, n), n) == v


class TestQuantizeUnipolar:
    def test_values(self):
        assert quantize_unipolar(0.5, 4) == 8
        assert quantize_unipolar(0.0, 4) == 0

    def test_saturation(self):
        assert quantize_unipolar(2.0, 4) == 15

    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_roundtrip(self, n, raw):
        v = raw % (1 << n)
        assert quantize_unipolar(dequantize_unipolar(v, n), n) == v


class TestOffsetBinary:
    def test_known_values(self):
        assert to_offset_binary(-8, 4) == 0
        assert to_offset_binary(0, 4) == 8
        assert to_offset_binary(7, 4) == 15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_offset_binary(8, 4)
        with pytest.raises(ValueError):
            from_offset_binary(16, 4)

    @given(st.integers(2, 12), st.integers())
    def test_roundtrip(self, n, seed):
        lo, hi = signed_range(n)
        v = lo + (seed % (hi - lo + 1))
        assert from_offset_binary(to_offset_binary(v, n), n) == v

    def test_array(self):
        out = to_offset_binary(np.array([-8, 0, 7]), 4)
        assert out.tolist() == [0, 8, 15]


class TestBits:
    def test_msb_first(self):
        assert bits_msb_first(0b1010, 4).tolist() == [1, 0, 1, 0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bits_msb_first(16, 4)
        with pytest.raises(ValueError):
            bits_msb_first(-1, 4)

    def test_array_shape(self):
        out = bits_msb_first(np.arange(8), 3)
        assert out.shape == (8, 3)

    @given(st.integers(1, 16), st.integers(0, 2**16 - 1))
    def test_pack_roundtrip(self, n, raw):
        v = raw % (1 << n)
        assert pack_bits_msb_first(bits_msb_first(v, n)) == v
