"""Differential verification of the vectorized cycle kernels.

The contract of :mod:`repro.core.kernels`: every vectorized kernel is
**bit-exact** with the stepped simulator it replaces.  This harness
proves it two ways — exhaustively over the full operand space at small
N, and property-based (hypothesis) at N = 8-10 — and pins the paper's
N/2-LSB error bound as an invariant of the closed forms.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bit_parallel import BitParallelMac
from repro.core.fsm_generator import FsmMuxGenerator
from repro.core.kernels import select_schedule, stream_matrix, truncated_matmul_kernel
from repro.core.multiplier import BiscMultiplierUnsigned, bisc_multiply_unsigned
from repro.core.mvm import BiscMvm
from repro.core.signed import bisc_multiply_signed, exact_product_lsb
from repro.core.energy_quality import truncated_multiply
from repro.sc.counters import SaturatingUpDownCounter, saturating_walk
from repro.sc.lfsr import Lfsr
from repro.sc.multipliers import ConventionalScMac


def _walk_reference(start, deltas, lo, hi):
    value = int(start)
    for d in deltas:
        value = max(lo, min(hi, value + int(d)))
    return value


class TestScheduleKernels:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5])
    def test_select_schedule_matches_fsm_across_wrap(self, n_bits):
        """The schedule covers several FSM periods, wrap included."""
        length = 3 * (1 << n_bits) + 1
        fsm = FsmMuxGenerator(n_bits)
        stepped = [fsm.step_select() for _ in range(length)]
        assert select_schedule(length, n_bits).tolist() == stepped

    @pytest.mark.parametrize("start", [1, 2, 7, 16])
    def test_select_schedule_start_cycle(self, start):
        n_bits = 4
        fsm = FsmMuxGenerator(n_bits)
        fsm.advance(start - 1)
        stepped = [fsm.step_select() for _ in range(40)]
        assert select_schedule(40, n_bits, start_cycle=start).tolist() == stepped

    @pytest.mark.parametrize("n_bits", [2, 3, 4])
    def test_stream_matrix_matches_fsm_stream(self, n_bits):
        length = 2 * (1 << n_bits) + 3
        values = np.arange(1 << n_bits)
        batch = stream_matrix(values, length, n_bits)
        for v in values:
            fsm = FsmMuxGenerator(n_bits)
            assert batch[v].tolist() == fsm.stream(int(v), length).tolist()

    def test_advance_matches_stepping(self):
        for n_bits in (1, 3, 5):
            for k in (0, 1, 7, (1 << n_bits), 3 * (1 << n_bits) + 2):
                fast, slow = FsmMuxGenerator(n_bits), FsmMuxGenerator(n_bits)
                fast.advance(k)
                for _ in range(k):
                    slow.step_select()
                assert fast.cycle == slow.cycle


class TestSaturatingWalk:
    def test_exhaustive_small_streams(self):
        """Every ±1 delta stream of length <= 10 at a 3-bit width."""
        lo, hi = -4, 3
        for t in range(0, 11):
            for pattern in range(1 << t):
                deltas = np.array(
                    [1 if (pattern >> i) & 1 else -1 for i in range(t)], dtype=np.int64
                )
                assert saturating_walk(0, deltas, lo, hi) == _walk_reference(
                    0, deltas, lo, hi
                )

    @given(st.integers(0, 2**31 - 1))
    def test_random_wide_deltas(self, seed):
        """Arbitrary step sizes (exercises the stepped fallback)."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 10))
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        shape = (int(rng.integers(1, 5)), int(rng.integers(0, 40)))
        deltas = rng.integers(-6, 7, size=shape)
        start = rng.integers(lo, hi + 1, size=shape[0])
        got = saturating_walk(start, deltas, lo, hi)
        want = [_walk_reference(start[i], deltas[i], lo, hi) for i in range(shape[0])]
        assert got.tolist() == want

    def test_counter_run_equals_stepped(self, rng):
        for _ in range(50):
            width = int(rng.integers(2, 8))
            bits = rng.integers(0, 2, size=int(rng.integers(0, 64)))
            fast, slow = SaturatingUpDownCounter(width), SaturatingUpDownCounter(width)
            assert fast.run(bits) == slow.run_stepped(bits)
            assert fast.value == slow.value


class TestUnsignedParity:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5])
    def test_exhaustive_three_way(self, n_bits):
        """Closed form == vectorized mac == stepped mac, all operands."""
        for w in range(0, (1 << n_bits) + 1):
            for x in range(0, 1 << n_bits):
                fast, slow = BiscMultiplierUnsigned(n_bits), BiscMultiplierUnsigned(n_bits)
                closed = int(bisc_multiply_unsigned(w, x, n_bits))
                assert fast.mac(w, x) == closed
                assert slow.mac_stepped(w, x) == closed
                assert fast.cycles == slow.cycles == w
                assert fast._fsm.cycle == slow._fsm.cycle

    @given(
        st.integers(8, 10),
        st.integers(0, 2**31 - 1),
    )
    def test_property_three_way(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        w = int(rng.integers(0, (1 << n_bits) + 1))
        x = int(rng.integers(0, 1 << n_bits))
        closed = int(bisc_multiply_unsigned(w, x, n_bits))
        fast, slow = BiscMultiplierUnsigned(n_bits), BiscMultiplierUnsigned(n_bits)
        assert fast.mac(w, x) == closed
        assert slow.mac_stepped(w, x) == closed

    @given(st.integers(1, 10), st.integers(0, 2**31 - 1))
    def test_paper_error_bound(self, n_bits, seed):
        """|P_w(x) - w*x/2**N| <= N/2, the paper's Section 2.3 bound."""
        rng = np.random.default_rng(seed)
        w = int(rng.integers(0, (1 << n_bits) + 1))
        x = int(rng.integers(0, 1 << n_bits))
        got = int(bisc_multiply_unsigned(w, x, n_bits))
        exact = w * x / (1 << n_bits)
        assert abs(got - exact) <= n_bits / 2


class TestSignedParity:
    @given(st.integers(8, 10), st.integers(0, 2**31 - 1))
    def test_signed_error_bound(self, n_bits, seed):
        """The signed up/down count inherits twice the unsigned bound."""
        rng = np.random.default_rng(seed)
        half = 1 << (n_bits - 1)
        w = int(rng.integers(-half, half))
        x = int(rng.integers(-half, half))
        got = int(bisc_multiply_signed(w, x, n_bits))
        assert abs(got - exact_product_lsb(w, x, n_bits)) <= n_bits

    @pytest.mark.parametrize("n_bits,b", [(3, 1), (3, 2), (4, 2), (4, 4), (5, 4)])
    def test_bit_parallel_exhaustive(self, n_bits, b):
        half = 1 << (n_bits - 1)
        for w in range(-half, half):
            for x in range(-half, half):
                fast, slow = BitParallelMac(n_bits, b), BitParallelMac(n_bits, b)
                assert fast.mac(w, x) == slow.mac_stepped(w, x)
                assert fast.cycles == slow.cycles

    @given(st.integers(8, 10), st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**31 - 1))
    def test_bit_parallel_property(self, n_bits, b, seed):
        rng = np.random.default_rng(seed)
        half = 1 << (n_bits - 1)
        fast, slow = BitParallelMac(n_bits, b), BitParallelMac(n_bits, b)
        for _ in range(4):
            w = int(rng.integers(-half, half))
            x = int(rng.integers(-half, half))
            assert fast.mac(w, x) == slow.mac_stepped(w, x)
            assert fast.cycles == slow.cycles
        # the accumulated (non-saturating) MAC equals the closed form sum
        assert fast.counter == slow.counter


class TestMvmParity:
    @pytest.mark.parametrize("n_bits", [2, 3, 4])
    def test_exhaustive_all_lanes_tight_headroom(self, n_bits):
        """acc_bits=1 forces mid-stream saturation (the fallback path)."""
        half = 1 << (n_bits - 1)
        lanes = np.arange(-half, half)
        for w in range(-half, half):
            fast = BiscMvm(n_bits, lanes.size, acc_bits=1)
            slow = BiscMvm(n_bits, lanes.size, acc_bits=1)
            fast.mac(w, lanes)
            slow.mac_stepped(w, lanes)
            assert np.array_equal(fast.read(), slow.read())
            assert fast.cycles == slow.cycles

    @given(st.integers(8, 10), st.integers(0, 2**31 - 1))
    def test_property_mac_sequences(self, n_bits, seed):
        """Random MAC sequences, headroom from 0 (saturating) to 4."""
        rng = np.random.default_rng(seed)
        half = 1 << (n_bits - 1)
        p = int(rng.integers(1, 12))
        acc_bits = int(rng.integers(0, 5))
        fast = BiscMvm(n_bits, p, acc_bits=acc_bits)
        slow = BiscMvm(n_bits, p, acc_bits=acc_bits)
        for _ in range(3):
            w = int(rng.integers(-half, half))
            x_vec = rng.integers(-half, half, size=p)
            fast.mac(w, x_vec)
            slow.mac_stepped(w, x_vec)
            assert np.array_equal(fast.read(), slow.read())
        assert fast.cycles == slow.cycles

    @given(st.integers(8, 9), st.integers(0, 2**31 - 1))
    def test_matvec_against_closed_form_when_unsaturated(self, n_bits, seed):
        """With generous headroom the MVM equals the signed closed form."""
        rng = np.random.default_rng(seed)
        half = 1 << (n_bits - 1)
        d, p = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        w_row = rng.integers(-half // 4, half // 4, size=d)
        x_mat = rng.integers(-half, half, size=(d, p))
        mvm = BiscMvm(n_bits, p, acc_bits=8)
        got = mvm.matvec(w_row, x_mat)
        want = bisc_multiply_signed(w_row[:, None], x_mat, n_bits).sum(axis=0)
        assert np.array_equal(got, want)


class TestConventionalParity:
    @given(st.integers(0, 2**31 - 1))
    def test_mac_equals_stepped(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        half = 1 << (n - 1)
        fast = ConventionalScMac(n, Lfsr(n), Lfsr(n, alternate=True), acc_bits=1)
        slow = ConventionalScMac(n, Lfsr(n), Lfsr(n, alternate=True), acc_bits=1)
        for _ in range(3):
            w = int(rng.integers(-half, half))
            x = int(rng.integers(-half, half))
            fast.mac(w, x)
            slow.mac_stepped(w, x)
            assert fast.counter.value == slow.counter.value
            assert fast.cycles == slow.cycles


class TestLfsrOrbitCache:
    @pytest.mark.parametrize("n_bits", [3, 6, 8, 10])
    def test_cached_sequence_matches_stepping(self, n_bits):
        seed = 5 % ((1 << n_bits) - 1) + 1
        cached, stepped = Lfsr(n_bits, seed=seed), Lfsr(n_bits, seed=seed)
        length = 2 * (1 << n_bits) + 7
        ref = np.empty(length, dtype=np.int64)
        for i in range(length):
            ref[i] = stepped.state
            stepped.step()
        assert np.array_equal(cached.sequence(length), ref)
        assert cached.state == stepped.state

    def test_interleaved_step_and_sequence(self):
        a, b = Lfsr(7, seed=11), Lfsr(7, seed=11)
        a.step()
        b.step()
        chunk = a.sequence(30)
        ref = np.empty(30, dtype=np.int64)
        for i in range(30):
            ref[i] = b.state
            b.step()
        assert np.array_equal(chunk, ref)
        assert a.state == b.state


class TestTruncatedKernelParity:
    @given(st.integers(0, 2**31 - 1))
    def test_no_rescale_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        half = 1 << (n - 1)
        m, d, p = (int(v) for v in rng.integers(1, 7, size=3))
        w = rng.integers(-half, half, size=(m, d))
        x = rng.integers(-half, half, size=(d, p))
        budget = int(rng.integers(0, half + 2))
        ref = truncated_multiply(w[:, :, None], x[None, :, :], n, budget, False).sum(axis=1)
        assert np.array_equal(truncated_matmul_kernel(w, x, n, budget, False), ref)

    @given(st.integers(0, 2**31 - 1))
    def test_rescale_matches_to_roundoff(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        half = 1 << (n - 1)
        m, d, p = (int(v) for v in rng.integers(1, 7, size=3))
        w = rng.integers(-half, half, size=(m, d))
        x = rng.integers(-half, half, size=(d, p))
        budget = int(rng.integers(0, half + 2))
        ref = truncated_multiply(w[:, :, None], x[None, :, :], n, budget, True).sum(axis=1)
        got = truncated_matmul_kernel(w, x, n, budget, True)
        assert np.allclose(ref, got, rtol=1e-12, atol=1e-9)
