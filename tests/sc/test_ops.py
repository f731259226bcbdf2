"""Tests for the SC stream-operator library."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sc import ops
from repro.sc.bitstream import sn_value
from repro.sc.halton import HaltonSource
from repro.sc.sng import Sng


def correlated_streams(n_bits, *values):
    """Comparator streams of a shared permutation source — one period."""
    sng = Sng(HaltonSource(n_bits))
    out = []
    for v in values:
        sng.reset()
        out.append(sng.generate(v, 1 << n_bits))
    return out


class TestScaledAdd:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_value_is_half_sum(self, a_val, b_val):
        n = 6
        a, b = correlated_streams(n, a_val, b_val)
        # the select stream must be INDEPENDENT of the inputs: an
        # alternating 0101 select is perfectly correlated with the
        # bit-reversed counter's MSB and collapses the adder
        select = np.random.default_rng(7).integers(0, 2, size=1 << n)
        got = sn_value(ops.scaled_add(a, b, select))
        want = (a_val + b_val) / 2 / (1 << n)
        assert got == pytest.approx(want, abs=0.12)

    def test_correlated_select_fails(self):
        """Documents the correlation hazard: an alternating select is
        the bit-reversed source's MSB and destroys the result."""
        n = 6
        a, b = correlated_streams(n, 32, 0)
        select = np.arange(1 << n) & 1
        got = sn_value(ops.scaled_add(a, b, select))
        assert got == 0.0  # completely wrong (exact answer: 0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ops.scaled_add(np.ones(4, int), np.ones(5, int), np.ones(4, int))

    def test_non_bit_input_rejected(self):
        with pytest.raises(ValueError):
            ops.scaled_add(np.full(4, 2), np.ones(4, int), np.ones(4, int))


class TestSaturatingAdd:
    @given(st.integers(0, 20), st.integers(0, 20))
    def test_small_values_add(self, a_val, b_val):
        """For small operands OR-addition is nearly exact."""
        n = 6
        # decorrelate by giving b the reversed phase
        sng = Sng(HaltonSource(n))
        a = sng.generate(a_val, 1 << n)
        sng2 = Sng(HaltonSource(n, start=17))
        b = sng2.generate(b_val, 1 << n)
        got = int(ops.saturating_add(a, b).sum())
        assert abs(got - min(a_val + b_val, (1 << n))) <= max(2, a_val * b_val / 16)

    def test_saturates(self):
        a = np.ones(16, dtype=int)
        assert ops.saturating_add(a, a).sum() == 16


class TestAbsoluteDifference:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_exact_on_correlated_streams(self, a_val, b_val):
        a, b = correlated_streams(6, a_val, b_val)
        assert int(ops.absolute_difference(a, b).sum()) == abs(a_val - b_val)


class TestComplementMinMax:
    @given(st.integers(0, 63))
    def test_complement(self, v):
        (a,) = correlated_streams(6, v)
        assert int(ops.complement(a).sum()) == 64 - v

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_min_max_on_correlated_streams(self, a_val, b_val):
        a, b = correlated_streams(6, a_val, b_val)
        assert int(ops.stream_min(a, b).sum()) == min(a_val, b_val)
        assert int(ops.stream_max(a, b).sum()) == max(a_val, b_val)

    def test_negate_alias(self):
        a = np.array([1, 0, 1])
        assert np.array_equal(ops.bipolar_negate(a), ops.complement(a))


class TestScaledSub:
    def test_bipolar_semantics(self):
        n = 6
        # a = +1.0 (all ones), b = -1.0 (all zeros): (a-b)/2 = +1.0
        a = np.ones(1 << n, dtype=int)
        b = np.zeros(1 << n, dtype=int)
        select = np.arange(1 << n) & 1
        got = sn_value(ops.scaled_sub(a, b, select))
        assert got == pytest.approx(1.0)
