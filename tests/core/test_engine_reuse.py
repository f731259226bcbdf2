"""Engine-reuse regressions: no state leaks across batches.

The batched inference engine reuses one engine object for many shards
and one process cache for many layers, so these tests pin the
reuse semantics of every stateful unit:

* a second batch through the same object equals the same batch through
  a fresh object (no hidden accumulator/FSM/SNG carry-over);
* stepped and vectorized paths stay bit-exact when the state at call
  entry is nonzero or saturated, not just from reset;
* the schedule cache is keyed by weight *content*, so mutating a
  weight array in place can never serve a stale schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mvm import BiscMvm, sc_matmul
from repro.nn.engines import ProposedScEngine
from repro.parallel import ScheduleCache, get_worker_cache, reset_worker_cache
from repro.sc.counters import SaturatingUpDownCounter
from repro.sc.encoding import quantize_signed
from repro.sc.lfsr import Lfsr
from repro.sc.multipliers import ConventionalScMac


def _batches(rng, n_bits: int, p: int, terms: int):
    half = 1 << (n_bits - 1)
    return [
        [(int(w), rng.integers(-half, half, size=p)) for w in rng.integers(-half, half, size=terms)]
        for _ in range(2)
    ]


class TestBiscMvmReuse:
    def test_second_batch_equals_fresh_instance(self, rng):
        n_bits, p = 4, 5
        batches = _batches(rng, n_bits, p, 6)
        reused = BiscMvm(n_bits, p)
        for batch in batches:
            reused.reset()
            for w, x in batch:
                reused.mac(w, x)
            fresh = BiscMvm(n_bits, p)
            for w, x in batch:
                fresh.mac(w, x)
            assert np.array_equal(reused.read(), fresh.read())

    def test_stepped_vs_vectorized_parity_without_reset(self, rng):
        """Continuous accumulation across two batches, no reset between."""
        n_bits, p = 4, 5
        batches = _batches(rng, n_bits, p, 8)
        vec, ref = BiscMvm(n_bits, p), BiscMvm(n_bits, p)
        for batch in batches:
            for w, x in batch:
                vec.mac(w, x)
                ref.mac_stepped(w, x)
            assert np.array_equal(vec.read(), ref.read())
            assert vec.cycles == ref.cycles

    def test_parity_from_saturated_accumulator(self):
        """Rail-to-rail workload: parity must hold mid-saturation too."""
        n_bits, p = 4, 3
        vec, ref = BiscMvm(n_bits, p), BiscMvm(n_bits, p)
        x_hi = np.full(p, 7)
        for w in [7, 7, 7, 7, -8, -8, -8, -8, 5, -3]:
            vec.mac(w, x_hi)
            ref.mac_stepped(w, x_hi)
            assert np.array_equal(vec.read(), ref.read())

    def test_matvec_is_idempotent_on_reuse(self, rng):
        n_bits, p = 4, 5
        mvm = BiscMvm(n_bits, p)
        mvm.mac(3, rng.integers(-8, 8, size=p))  # dirty the accumulators
        w_row = rng.integers(-8, 8, size=7)
        x_mat = rng.integers(-8, 8, size=(7, p))
        first = mvm.matvec(w_row, x_mat)
        second = mvm.matvec(w_row, x_mat)
        assert np.array_equal(first, second)


class TestSaturatingCounterReuse:
    @pytest.mark.parametrize("start", [0, 5, 7, -8])
    def test_run_vs_stepped_from_any_start(self, start, rng):
        c_vec = SaturatingUpDownCounter(4, initial=start)
        c_ref = SaturatingUpDownCounter(4, initial=start)
        for size in (40, 17, 3):
            bits = rng.integers(0, 2, size=size)
            c_vec.run(bits)
            c_ref.run_stepped(bits)
            assert c_vec.value == c_ref.value

    def test_run_from_saturated_rail(self):
        c_vec = SaturatingUpDownCounter(4, initial=7)
        c_ref = SaturatingUpDownCounter(4, initial=7)
        ones = np.ones(10, dtype=np.int64)
        c_vec.run(ones)
        c_ref.run_stepped(ones)
        assert c_vec.value == c_ref.value == 7
        zeros = np.zeros(40, dtype=np.int64)
        c_vec.run(zeros)
        c_ref.run_stepped(zeros)
        assert c_vec.value == c_ref.value == -8


class TestConventionalScMacReuse:
    def _make(self):
        return ConventionalScMac(
            6, Lfsr(6), Lfsr(6, alternate=True), acc_bits=2
        )

    def test_stepped_vs_vectorized_across_batches(self, rng):
        ops = [(int(w), int(x)) for w, x in rng.integers(-32, 32, size=(10, 2))]
        vec, ref = self._make(), self._make()
        for w, x in ops:
            vec.mac(w, x)
            ref.mac_stepped(w, x)
            assert vec.counter.value == ref.counter.value
        assert vec.cycles == ref.cycles

    def test_reset_restores_reproducibility(self, rng):
        ops = [(int(w), int(x)) for w, x in rng.integers(-32, 32, size=(5, 2))]
        mac = self._make()
        for w, x in ops:
            mac.mac(w, x)
        first = mac.counter.value
        mac.reset()
        for w, x in ops:
            mac.mac(w, x)
        assert mac.counter.value == first
        assert mac.cycles == 5 * (1 << 6)


def _reference(w, x, n_bits):
    """The uncached reference kernel on the engine's quantized operands."""
    acc = sc_matmul(quantize_signed(w, n_bits), quantize_signed(x, n_bits), n_bits, 2, "final")
    return acc / (1 << (n_bits - 1))


class TestCachedEngineReuse:
    @pytest.fixture(autouse=True)
    def _fresh_process_cache(self):
        reset_worker_cache()
        yield
        reset_worker_cache()

    def test_engine_reuse_across_two_batches_matches_uncached(self, rng):
        engine = ProposedScEngine(n_bits=8)
        w = rng.normal(0.0, 0.3, size=(6, 14))
        for _ in range(2):
            x = rng.normal(0.0, 0.3, size=(14, 9))
            assert np.array_equal(engine.matmul(w, x), _reference(w, x, 8))
        stats = get_worker_cache().stats()
        assert stats["hits"] >= 1  # second batch reused the schedule

    def test_inplace_weight_mutation_invalidates_cache(self, rng):
        """Fine-tuning mutates weights in place; the cache must notice."""
        cache = ScheduleCache()
        w = rng.integers(-128, 128, size=(4, 9))
        x = rng.integers(-128, 128, size=(9, 5))
        assert np.array_equal(cache.sc_matmul(w, x, 8, 2), sc_matmul(w, x, 8, 2, "final"))
        w += np.where(w < 100, 1, -1)  # same object, new content
        assert np.array_equal(cache.sc_matmul(w, x, 8, 2), sc_matmul(w, x, 8, 2, "final"))

    def test_shared_cache_across_engines_is_safe(self, rng):
        """One process cache serves every layer engine of the net."""
        e1 = ProposedScEngine(n_bits=8)
        e2 = ProposedScEngine(n_bits=6)
        w1 = rng.normal(0.0, 0.3, size=(3, 10))
        w2 = rng.normal(0.0, 0.3, size=(5, 8))
        x1 = rng.normal(0.0, 0.3, size=(10, 4))
        x2 = rng.normal(0.0, 0.3, size=(8, 6))
        assert np.array_equal(e1.matmul(w1, x1), _reference(w1, x1, 8))
        assert np.array_equal(e2.matmul(w2, x2), _reference(w2, x2, 6))
        assert get_worker_cache().stats()["layers"] == 2

    def test_cache_eviction_keeps_results_exact(self, rng):
        cache = ScheduleCache(max_layers=2)
        ws = [rng.integers(-8, 8, size=(3, 6)) for _ in range(4)]
        x = rng.integers(-8, 8, size=(6, 4))
        for w in ws + ws:  # second pass re-derives evicted entries
            assert np.array_equal(cache.sc_matmul(w, x, 4, 2), sc_matmul(w, x, 4, 2, "final"))
        assert cache.stats()["layers"] <= 2
