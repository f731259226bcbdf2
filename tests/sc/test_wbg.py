"""Tests for the weighted binary generator SNG."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sc.halton import HaltonSource
from repro.sc.lfsr import Lfsr
from repro.sc.sng import WbgSng


class TestWbg:
    @given(st.integers(3, 8), st.integers(0, 255))
    def test_full_permutation_period_is_exact(self, n, raw):
        """Over one full period of a permutation source, the WBG stream
        encodes the value exactly (each random word appears once)."""
        v = raw % (1 << n)
        sng = WbgSng(HaltonSource(n))
        assert int(sng.generate(v, 1 << n).sum()) == v

    def test_extremes(self):
        sng = WbgSng(HaltonSource(5))
        assert sng.generate(0, 32).sum() == 0
        sng.reset()
        # value 2^n - 1: emits 1 whenever any random bit is set (31/32)
        assert sng.generate(31, 32).sum() == 31

    def test_lfsr_backed_is_deterministic(self):
        a = WbgSng(Lfsr(6, seed=3)).generate(40, 64)
        b = WbgSng(Lfsr(6, seed=3)).generate(40, 64)
        assert np.array_equal(a, b)

    def test_lfsr_backed_accuracy(self):
        """LFSR-backed WBG is close to the target probability."""
        n = 8
        sng = WbgSng(Lfsr(n, seed=7))
        for v in (16, 100, 200):
            got = int(sng.generate(v, 1 << n).sum())
            sng.reset()
            assert abs(got - v) <= 6

    def test_monotone_in_value(self):
        """Streams for larger magnitudes are supersets of smaller ones."""
        n = 6
        sng = WbgSng(HaltonSource(n))
        prev = sng.generate(10, 64)
        sng.reset()
        cur = sng.generate(42, 64)
        assert ((cur - prev) >= 0).all()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            WbgSng(HaltonSource(4)).generate(16, 8)
