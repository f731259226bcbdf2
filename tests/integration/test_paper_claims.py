"""The reproduction contract: every headline claim of the paper, in one file.

Each test names the claim (with its section) and asserts the measured
behaviour of this reproduction, using the cached quick checkpoints and
the fast closed forms.  If a refactor breaks any of these, the repo no
longer reproduces the paper.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    conventional_error_stats,
    error_statistics,
    laplace_weights_for_target_latency,
)
from repro.core.bit_parallel import BitParallelMac
from repro.core.signed import bisc_multiply_signed, exact_product_lsb, multiply_latency
from repro.experiments import DIGITS_QUICK_SPEC, get_trained_model, table1_signed
from repro.experiments.table2_area import PUBLISHED_TOTALS
from repro.hw import MacArray, all_table2_designs, compare_mac_arrays, proposed_entry, proposed_mac
from repro.nn import attach_engines
from repro.sc.generators import generator_keys

#: The SNG family matrix committed with the generator registry: per
#: family, the N=8 lfsr-sc accuracy on the first 256 digits-quick test
#: images, the floor the accuracy test holds each family to.
BENCH_PR10 = Path(__file__).resolve().parents[2] / "BENCH_PR10.json"


class TestSection2Claims:
    def test_low_latency_one_multiply_costs_weight_cycles(self):
        """§2.2: 'one SC multiply takes just a few cycles' — |2^(N-1)w|."""
        assert multiply_latency(-5, 8) == 5
        assert multiply_latency(-5, 8) < (1 << 8) / 50

    def test_guaranteed_error_bound(self):
        """§1/§2.3: 'SC multiplier ... with guaranteed error bound' N/2."""
        n = 8
        half = 1 << (n - 1)
        v = np.arange(-half, half)
        err = bisc_multiply_signed(v[:, None], v[None, :], n) - exact_product_lsb(
            v[:, None], v[None, :], n
        )
        assert np.abs(err).max() <= n / 2

    def test_table1_worked_example(self):
        """§2.4 Table 1: reproduced value-for-value."""
        assert table1_signed.verify()

    def test_bit_parallel_is_bit_exact(self):
        """§2.5: 'our bit-parallel computation result is exactly the
        same as our bit-serial result'."""
        mac = BitParallelMac(6, 8)
        for w, x in [(-32, 31), (17, -9), (1, 1)]:
            mac.reset()
            assert mac.mac(w, x) == bisc_multiply_signed(w, x, 6)


class TestSection3Claims:
    def test_sharing_causes_no_accuracy_degradation(self):
        """§3.1: shared FSM + down counter lose nothing (vs scalar MACs)."""
        from repro.core.rtl import BiscMvmRtl

        rng = np.random.default_rng(0)
        n, p = 6, 8
        w = int(rng.integers(-31, 32))
        x = rng.integers(-32, 32, size=p)
        rtl = BiscMvmRtl(n, p, acc_bits=6)
        rtl.load(w, x)
        while rtl.busy:
            rtl.clock()
        assert rtl.accumulators.tolist() == [
            bisc_multiply_signed(w, int(xi), n) for xi in x
        ]

    def test_bell_shaped_weights_give_large_latency_reduction(self):
        """§3.2: trained weights' average magnitude is far below max."""
        model = get_trained_model(DIGITS_QUICK_SPEC)
        w = np.concatenate([c.weight.value.ravel() for c in model.net.conv_layers])
        from repro.hw import avg_mac_cycles_from_weights

        avg = avg_mac_cycles_from_weights(w, 8)
        assert avg < (1 << 8) / 8  # at least 8x faster than conventional SC


class TestSection4Claims:
    def test_fig5_ordering(self):
        """§4.1: Halton best conventional, ED worst, ours far below all."""
        stats = error_statistics(8)
        std = {m: float(s.std[-1]) for m, s in stats.items()}
        assert std["proposed"] < std["halton"] < std["lfsr"] < 0.1
        assert std["ed"] > std["halton"]

    @pytest.mark.slow
    def test_fig6_proposed_matches_fixed_point(self):
        """§4.2: 'our SC-CNN achieves almost the same accuracy as the
        fixed-point binary' (easy benchmark, same precision)."""
        m = get_trained_model(DIGITS_QUICK_SPEC)
        ds = m.dataset
        accs = {}
        for kind in ("fixed", "proposed-sc"):
            attach_engines(m.net, kind, m.ranges, n_bits=8)
            accs[kind] = m.net.accuracy(ds.x_test, ds.y_test)
        m.restore_float()
        assert abs(accs["proposed-sc"] - accs["fixed"]) < 0.05

    def test_table2_calibration(self):
        """§4.3.1 Table 2: all 12 design areas near published synthesis."""
        for d in all_table2_designs():
            assert d.total_area_um2 == pytest.approx(
                PUBLISHED_TOTALS[(d.name, d.precision)], rel=0.10
            )

    def test_energy_efficiency_headline(self):
        """§4.3.2: '40X~490X more energy-efficient ... than the
        conventional SC' across the MNIST and CIFAR settings."""
        mnist = compare_mac_arrays(laplace_weights_for_target_latency(2.6, 5), 5)
        cifar = compare_mac_arrays(laplace_weights_for_target_latency(7.7, 9), 9)
        assert mnist["ratios"]["energy_gain_vs_conv_sc"] > 20
        assert cifar["ratios"]["energy_gain_vs_conv_sc"] > 150

    def test_beats_binary_energy_at_same_accuracy(self):
        """§4.3.2: 'slightly more energy-efficient ... than the
        fixed-point binary' (paper-matched weight statistics)."""
        cifar = compare_mac_arrays(laplace_weights_for_target_latency(7.7, 9), 9)
        assert cifar["ratios"]["energy_gain_vs_binary"] > 1.0

    def test_table3_scale(self):
        """§4.3.3: proposed row's area/power/GOPS land near the paper's."""
        e = proposed_entry()
        assert e.gops == pytest.approx(351.55, rel=0.3)
        assert e.gops_per_mm2 > 4000

    def test_scalability_vs_fully_parallel(self):
        """§4.3.3: ours is scalable — throughput grows with array size."""
        small = MacArray(proposed_mac(9, bit_parallel=8), 64, 16)
        large = MacArray(proposed_mac(9, bit_parallel=8), 1024, 16)
        assert large.gops(1.5) == pytest.approx(16 * small.gops(1.5))


class TestSngFamilyClaims:
    """The MIP-synthesized SNG tables (Lee et al., arXiv:1902.05971)
    against the LFSR pair of the conventional SC baseline, and every
    other registry family against its committed accuracy."""

    @pytest.mark.parametrize("n", [5, 8])
    def test_fig5_mip_beats_lfsr_over_a_full_period(self, n):
        """§4.1, Fig. 5 at the last checkpoint 2^n: over every operand
        pair, the MIP tables are at most as biased as the LFSR pair and
        strictly less spread."""
        mip = conventional_error_stats("mip", n, checkpoints=[2**n])
        lfsr = conventional_error_stats("lfsr", n, checkpoints=[2**n])
        assert abs(mip.mean[0]) <= abs(lfsr.mean[0])
        assert mip.std[0] < lfsr.std[0]

    def test_n8_digits_accuracy_per_family(self):
        """§4.2, Fig. 6 without fine-tuning: the conventional SC engine at
        N=8 is near chance on the LFSR pair, usable on the MIP tables.
        Only the per-call ``generator`` varies, so a delta is the SNG
        family's alone."""
        m = get_trained_model(DIGITS_QUICK_SPEC)
        x, y = m.dataset.x_test[:256], m.dataset.y_test[:256]
        attach_engines(m.net, "lfsr-sc", m.ranges, n_bits=8)
        try:
            acc = {
                spec: m.net.accuracy(x, y, batch=64, generator=spec)
                for spec in generator_keys()
            }
        finally:
            m.restore_float()
        assert acc["mip"] >= 0.75
        assert acc["mip"] >= acc["lfsr"] - 0.02
        assert acc["halton"] >= acc["lfsr"] - 0.05
        committed = json.loads(BENCH_PR10.read_text())["generator_matrix"]["accuracy"]
        for spec, leg in committed["families"].items():
            assert acc[spec] >= leg["accuracy"] - 0.05, (spec, acc)
