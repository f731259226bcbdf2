"""Tests for stochastic number generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sc.encoding import BIPOLAR
from repro.sc.halton import HaltonSource
from repro.sc.lfsr import Lfsr
from repro.sc.sng import (
    CounterSource,
    RandomSource,
    Sng,
    comparator_stream,
)


class TestSources:
    def test_counter_source_sorted_stream(self):
        sng = Sng(CounterSource(3))
        assert sng.generate(5, 8).tolist() == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_sobol_is_bit_reversed_counter(self):
        src = HaltonSource(4)
        seq = src.sequence(16)
        expected = [int(format(i, "04b")[::-1], 2) for i in range(16)]
        assert seq.tolist() == expected

    def test_sobol_permutation(self):
        seq = HaltonSource(5).sequence(32)
        assert sorted(seq.tolist()) == list(range(32))

    def test_sources_satisfy_protocol(self):
        for src in (CounterSource(4), HaltonSource(4), Lfsr(4), HaltonSource(4, base=3)):
            assert isinstance(src, RandomSource)

    def test_counter_wraps(self):
        src = CounterSource(3)
        seq = src.sequence(10)
        assert seq.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_reset(self):
        for src in (CounterSource(4, start=5), HaltonSource(4, start=3), Lfsr(4, seed=7)):
            a = src.sequence(9)
            src.reset()
            assert np.array_equal(src.sequence(9), a)


class TestSng:
    @given(st.integers(2, 8), st.integers(0, 255))
    def test_unipolar_value_counter_source_exact(self, n, raw):
        """With a counter source one period encodes the value exactly."""
        v = raw % (1 << n)
        sng = Sng(CounterSource(n))
        assert int(sng.generate(v, 1 << n).sum()) == v

    @given(st.integers(3, 8), st.integers(0, 255))
    def test_sobol_one_period_exact(self, n, raw):
        """A full period of any permutation source encodes exactly."""
        v = raw % (1 << n)
        sng = Sng(HaltonSource(n))
        assert int(sng.generate(v, 1 << n).sum()) == v

    def test_bipolar_uses_offset_binary(self):
        sng = Sng(CounterSource(4), encoding=BIPOLAR)
        # value -8 -> offset 0 -> all-zero stream
        assert sng.generate(-8, 16).sum() == 0
        # value 7 -> offset 15 -> almost-all-one stream
        assert sng.generate(7, 16).sum() == 15

    def test_out_of_range_rejected(self):
        sng = Sng(CounterSource(4))
        with pytest.raises(ValueError):
            sng.generate(20, 8)

    def test_generate_all_values_consistent(self):
        sng = Sng(Lfsr(5, seed=3))
        table = sng.generate_all_values(32)
        assert table.shape == (33, 32)
        sng.reset()
        row = sng.generate(13, 32)
        assert np.array_equal(table[13], row)
        # monotone: higher magnitude -> superset of ones
        assert (np.diff(table.astype(int), axis=0) >= 0).all()

    def test_comparator_stream(self):
        assert comparator_stream(np.array([0, 3, 7]), 4).tolist() == [1, 1, 0]


class TestSharedSourceSemantics:
    """One ``Sng`` is one hardware generator: every stream it emits
    compares against the *same* random window.  An earlier revision
    consumed the source on each ``generate`` call, so a second stream
    silently saw the next window — equivalent to reseeding
    mid-conversion, which no shared hardware SNG does."""

    def test_repeated_generate_is_identical(self):
        sng = Sng(Lfsr(5, seed=3))
        first = sng.generate(13, 32)
        # regression: this used to return the comparator output of the
        # *next* 32 source values instead of the same shared window
        assert np.array_equal(sng.generate(13, 32), first)

    def test_streams_share_one_window(self):
        sng = Sng(Lfsr(5, seed=3))
        a = sng.generate(9, 32)
        b = sng.generate(21, 32)
        fresh = Lfsr(5, seed=3).sequence(32)
        assert np.array_equal(a, comparator_stream(fresh, 9))
        assert np.array_equal(b, comparator_stream(fresh, 21))
        # comparator streams off one source nest: higher value adds ones
        assert (b - a >= 0).all()

    def test_shared_streams_are_maximally_correlated(self):
        from repro.sc.bitstream import sc_correlation

        sng = Sng(Lfsr(6, seed=5))
        a = sng.generate(20, 64)
        b = sng.generate(44, 64)
        assert sc_correlation(a, b) == pytest.approx(1.0)

    def test_longer_generate_extends_the_window(self):
        sng = Sng(Lfsr(5, seed=3))
        short = sng.generate(13, 8)
        long = sng.generate(13, 48)
        assert np.array_equal(short, long[:8])
        sng2 = Sng(Lfsr(5, seed=3))
        assert np.array_equal(sng2.generate(13, 48), long)

    def test_reset_starts_a_fresh_window(self):
        sng = Sng(Lfsr(5, seed=3))
        first = sng.generate(13, 32)
        sng.generate(7, 48)  # grow the window past the first call
        sng.reset()
        assert np.array_equal(sng.generate(13, 32), first)
