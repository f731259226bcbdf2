"""Register-level simulators vs closed forms (the RTL-vs-model check)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.fsm_generator import mux_select_sequence
from repro.core.mvm import sc_matmul
from repro.core.rtl import BiscMvmRtl, FsmMuxRtl, ScMacRtl
from repro.core.signed import bisc_multiply_signed


class TestFsmMuxRtl:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_matches_functional_pattern(self, n):
        rtl = FsmMuxRtl(n)
        got = [rtl.clock() for _ in range(2 << n)]
        expected = mux_select_sequence(1 << n, n).tolist()
        assert got == expected + expected  # wraps cleanly

    def test_reset(self):
        rtl = FsmMuxRtl(4)
        first = [rtl.clock() for _ in range(5)]
        rtl.reset()
        assert [rtl.clock() for _ in range(5)] == first


class TestScMacRtl:
    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_vs_closed_form(self, n):
        half = 1 << (n - 1)
        mac = ScMacRtl(n, acc_bits=4)
        for w in range(-half, half):
            for x in range(-half, half):
                mac.reset()
                assert mac.run(w, x) == bisc_multiply_signed(w, x, n)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @example(-100, 87)
    def test_random_pairs_n8(self, w, x):
        mac = ScMacRtl(8, acc_bits=4)
        assert mac.run(w, x) == bisc_multiply_signed(w, x, 8)

    def test_busy_protocol(self):
        mac = ScMacRtl(4)
        mac.load(5, 3)
        assert mac.busy
        with pytest.raises(RuntimeError):
            mac.load(1, 1)
        while mac.busy:
            mac.clock()
        assert mac.total_cycles == 5

    def test_clock_when_idle_is_noop(self):
        mac = ScMacRtl(4)
        mac.clock()
        assert mac.accumulator == 0 and mac.total_cycles == 0

    def test_operand_validation(self):
        mac = ScMacRtl(4)
        with pytest.raises(ValueError):
            mac.load(8, 0)

    def test_accumulator_saturates(self):
        mac = ScMacRtl(3, acc_bits=1)  # range [-8, 7]
        for _ in range(4):
            if not mac.busy:
                mac.load(-4, -4)  # each MAC adds +4
            while mac.busy:
                mac.clock()
        assert mac.accumulator == 7  # saturated, not 16


class TestBiscMvmRtl:
    def test_sequence_matches_engine(self, rng):
        n, p, d = 6, 4, 5
        half = 1 << (n - 1)
        w = rng.integers(-half, half, size=d)
        x = rng.integers(-half, half, size=(d, p))
        rtl = BiscMvmRtl(n, p, acc_bits=6)
        got = rtl.run_sequence(w, x)
        expected = sc_matmul(w[None, :], x, n, acc_bits=6, saturate="term")[0]
        assert np.array_equal(got, expected)
        assert rtl.total_cycles == int(np.abs(w).sum())

    def test_shared_fsm_no_accuracy_loss(self, rng):
        """Lanes through the shared FSM equal independent scalar MACs."""
        n, p = 5, 6
        half = 1 << (n - 1)
        w = int(rng.integers(-half, half))
        x = rng.integers(-half, half, size=p)
        rtl = BiscMvmRtl(n, p, acc_bits=6)
        rtl.load(w, x)
        while rtl.busy:
            rtl.clock()
        scalars = [bisc_multiply_signed(w, int(xi), n) for xi in x]
        assert rtl.accumulators.tolist() == scalars

    def test_load_while_busy(self):
        rtl = BiscMvmRtl(4, 2)
        rtl.load(5, [1, 2])
        with pytest.raises(RuntimeError):
            rtl.load(1, [0, 0])

    def test_validation(self):
        rtl = BiscMvmRtl(4, 2)
        with pytest.raises(ValueError):
            rtl.load(9, [0, 0])
        with pytest.raises(ValueError):
            rtl.load(3, [0, 0, 0])
