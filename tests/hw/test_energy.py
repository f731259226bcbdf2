"""Tests for the Fig. 7 comparison machinery and headline ratios."""

import numpy as np
import pytest

from repro.analysis import laplace_weights_for_target_latency, weight_latency_stats
from repro.hw.energy import avg_mac_cycles_from_weights, compare_mac_arrays


class TestAvgCycles:
    def test_known_values(self):
        w = np.array([0.5, -0.25, 0.0])  # N=5 -> k = 8, 4, 0
        assert avg_mac_cycles_from_weights(w, 5) == pytest.approx(4.0)

    def test_bit_parallel_ceiling(self):
        w = np.array([0.5])  # k = 8 at N=5
        assert avg_mac_cycles_from_weights(w, 5, bit_parallel=3) == pytest.approx(3.0)

    def test_clipped_to_representable(self):
        w = np.array([10.0])  # saturates at 2**(N-1) - 1
        assert avg_mac_cycles_from_weights(w, 5) == 15.0

    def test_full_scale_negative_weight(self):
        """-1.0 quantizes to -2**(N-1), and the multiplier runs that many cycles."""
        from repro.core.mvm import BiscMvm

        mvm = BiscMvm(n_bits=8, p=1)
        mvm.mac(-128, np.zeros(1, dtype=np.int64))
        assert mvm.cycles == 128
        assert avg_mac_cycles_from_weights(np.array([-1.0]), 8) == 128.0
        assert avg_mac_cycles_from_weights(np.array([-1.0]), 8, bit_parallel=8) == 16.0

    def test_matches_weight_latency_stats(self):
        """One quantizer and one latency rule: the Fig. 7 delay equals the stats'."""
        w = np.random.default_rng(2).uniform(-1.2, 1.2, size=4096)
        for precision in (5, 8, 9):
            for b in (1, 3, 8):
                stats = weight_latency_stats(w, precision, bit_parallel=b)
                assert avg_mac_cycles_from_weights(w, precision, b) == stats.avg_cycles

    def test_laplace_target_matches(self):
        for target in (3.0, 7.7):
            w = laplace_weights_for_target_latency(target, 9)
            got = avg_mac_cycles_from_weights(w, 9)
            assert got == pytest.approx(target, rel=0.15)


class TestFig7Ratios:
    """The paper's Section 4.3.2 headline numbers, as wide bands."""

    @pytest.fixture(scope="class")
    def cifar_cmp(self):
        w = laplace_weights_for_target_latency(7.7, 9)
        return compare_mac_arrays(w, precision=9)

    @pytest.fixture(scope="class")
    def mnist_cmp(self):
        w = laplace_weights_for_target_latency(2.6, 5)
        return compare_mac_arrays(w, precision=5)

    def test_cifar_energy_gain_vs_conventional(self, cifar_cmp):
        """Paper: 300x ~ 490x for CIFAR-10."""
        assert 150 <= cifar_cmp["ratios"]["energy_gain_vs_conv_sc"] <= 1000

    def test_mnist_energy_gain_vs_conventional(self, mnist_cmp):
        """Paper: ~40x for MNIST."""
        assert 15 <= mnist_cmp["ratios"]["energy_gain_vs_conv_sc"] <= 120

    def test_energy_beats_binary(self, cifar_cmp, mnist_cmp):
        """Paper: 23~29% (CIFAR) and 10% (MNIST) better than binary."""
        assert cifar_cmp["ratios"]["energy_gain_vs_binary"] > 1.0
        assert mnist_cmp["ratios"]["energy_gain_vs_binary"] > 1.0

    def test_adp_beats_binary(self, cifar_cmp):
        """Paper: 29~44% lower ADP than same-accuracy binary."""
        assert cifar_cmp["ratios"]["adp_reduction_vs_binary"] > 0.0

    def test_row_ordering(self, cifar_cmp):
        rows = {r.label: r for r in cifar_cmp["rows"]}
        # conventional SC has catastrophic latency and energy
        assert rows["Conv. SC"].energy_per_mac_pj > 50 * rows["FIX"].energy_per_mac_pj
        # SC arrays are smaller than binary
        assert rows["Ours"].area_mm2 < rows["FIX"].area_mm2
        # bit-parallel trades area for latency
        assert rows["Ours-8"].area_mm2 > rows["Ours"].area_mm2
        assert rows["Ours-8"].avg_mac_cycles < rows["Ours"].avg_mac_cycles

    def test_row_dict_roundtrip(self, cifar_cmp):
        d = cifar_cmp["rows"][0].as_dict()
        assert set(d) == {
            "area_mm2",
            "avg_mac_cycles",
            "energy_per_mac_pj",
            "power_mw",
            "adp_um2_cycles",
        }
