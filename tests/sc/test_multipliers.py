"""Tests for conventional SC multipliers."""

import numpy as np
import pytest

from repro.sc.halton import HaltonSource
from repro.sc.lfsr import Lfsr
from repro.sc.multipliers import (
    ConventionalScMac,
    bipolar_multiply_int,
    bipolar_xnor_stream,
    lfsr_ud_table,
    pairwise_partial_counts,
    pairwise_partial_counts_from_streams,
    select_low_bias_seeds,
    unipolar_and_stream,
    unipolar_multiply_int,
    xnor_ones_from_counts,
)


class TestGates:
    def test_and(self):
        assert unipolar_and_stream([1, 1, 0, 0], [1, 0, 1, 0]).tolist() == [1, 0, 0, 0]

    def test_xnor(self):
        assert bipolar_xnor_stream([1, 1, 0, 0], [1, 0, 1, 0]).tolist() == [1, 0, 0, 1]


class TestScalarMultiplies:
    def test_unipolar_accuracy(self):
        n = 8
        got = unipolar_multiply_int(128, 128, n, HaltonSource(n), Lfsr(n, seed=5))
        # 0.5 * 0.5 == 0.25 -> 64 counts out of 256
        assert abs(got - 64) <= 6

    def test_bipolar_accuracy(self):
        n = 8
        got = bipolar_multiply_int(
            64, -64, n, Lfsr(n, seed=3), Lfsr(n, seed=40, alternate=True)
        )
        exact = 64 * -64 / 128.0  # -32 output LSBs
        assert abs(got - exact) <= 10

    def test_zero_weight(self):
        n = 6
        got = bipolar_multiply_int(
            0, 20, n, Lfsr(n, seed=1), Lfsr(n, seed=9, alternate=True)
        )
        assert abs(got) <= 4


class TestPairwiseCounts:
    def test_matches_direct_simulation(self):
        n = 4
        length = 1 << n
        rw = Lfsr(n, seed=1).sequence(length)
        rx = Lfsr(n, seed=5, alternate=True).sequence(length)
        counts = pairwise_partial_counts(rw, rx, n, [4, 16])
        for u in (0, 3, 9, 16):
            for v in (0, 7, 16):
                a = (rw < u).astype(int)
                b = (rx < v).astype(int)
                for ci, t in enumerate((4, 16)):
                    direct = int(bipolar_xnor_stream(a[:t], b[:t]).sum())
                    assert counts["ones"][ci, u, v] == direct

    def test_streams_variant_validates_shapes(self):
        with pytest.raises(ValueError):
            pairwise_partial_counts_from_streams(np.ones((4, 8)), np.ones((4, 6)), [4])
        with pytest.raises(ValueError):
            pairwise_partial_counts_from_streams(np.ones((4, 8)), np.ones((4, 8)), [9])

    def test_inclusion_exclusion_helper(self):
        # T=8, #a=3, #b=4, #ab=2 -> xnor ones = 8-3-4+4 = 5
        assert xnor_ones_from_counts(8, 3, 4, 2) == 5


class TestUdTable:
    def test_extremes_are_near_exact(self):
        n = 6
        tbl = lfsr_ud_table(n, *select_low_bias_seeds(n))
        length = 1 << n
        # (+max, +max): both streams nearly all ones -> ud ~ +length
        assert tbl[length - 1, length - 1] >= length - 6
        # (-1.0, -1.0): both all zeros -> XNOR all ones -> ud == +length
        assert tbl[0, 0] == length
        # (-1.0, +max): ud ~ -length
        assert tbl[0, length - 1] <= -(length - 6)

    def test_seed_selection_deterministic(self):
        assert select_low_bias_seeds(5) == select_low_bias_seeds(5)

    def test_table_error_moderate(self):
        n = 6
        tbl = lfsr_ud_table(n, *select_low_bias_seeds(n))
        half = 1 << (n - 1)
        w = np.arange(-half, half)
        est = tbl[half + w[:, None], half + w[None, :]] / 2.0
        err = est - w[:, None] * w[None, :] / half
        assert abs(err.mean()) < 0.5  # near-unbiased after seed selection
        assert err.std() < 4.0  # sampling noise, in output LSBs


class TestConventionalScMac:
    def test_latency_accounting(self):
        n = 5
        mac = ConventionalScMac(n, Lfsr(n), Lfsr(n, seed=7, alternate=True))
        mac.mac(3, 4)
        mac.mac(-5, 8)
        assert mac.cycles == 2 * (1 << n)

    def test_accumulates_products(self):
        n = 7
        mac = ConventionalScMac(
            n, Lfsr(n, seed=2), Lfsr(n, seed=29, alternate=True), acc_bits=4
        )
        pairs = [(40, 30), (-25, 50), (10, -60)]
        for w, x in pairs:
            mac.mac(w, x)
        exact = sum(w * x for w, x in pairs) / (1 << (n - 1))
        assert abs(mac.result_int - exact) <= 12

    def test_reset(self):
        n = 5
        mac = ConventionalScMac(n, Lfsr(n), Lfsr(n, seed=3, alternate=True))
        mac.mac(10, 10)
        mac.reset()
        assert mac.cycles == 0 and mac.counter.value == 0
