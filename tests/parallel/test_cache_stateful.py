"""Stateful model check of :class:`ScheduleCache`: never serve stale.

Hypothesis drives random interleavings of lookups, in-place weight
mutation (the fine-tuning hazard the content keying exists for), LRU
eviction pressure, memo corruption, and recovery, asserting after every
lookup that the served schedule is bit-identical to a fresh recompute
of the weight's *current* content — i.e. the cache is observationally
equivalent to no cache at all, just faster — or, for a corrupted
entry, that the lookup refuses it with :class:`CachePoisonedError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.mvm import sc_matmul
from repro.keys import layer_coeff_key
from repro.parallel.cache import (
    CachePoisonedError,
    ScheduleCache,
    get_worker_cache,
    reset_worker_cache,
)

N_BITS = 4
SHAPE = (3, 4)
MAX_LAYERS = 3  # small on purpose: eviction pressure in every run


def fresh_coeff(w: np.ndarray):
    """Ground truth: what an empty cache computes for today's content."""
    return ScheduleCache().layer_coeff(w, N_BITS)


def corrupt_memo(cache: ScheduleCache, keys=None) -> None:
    """Rewrite resident memo entries (all, or ``keys``) to a wrong shape."""
    with cache._lock:
        for key in list(cache._memo) if keys is None else keys:
            kind, _ = cache._memo[key]
            cache._memo[key] = (kind, np.empty(0))


class CacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = ScheduleCache(max_layers=MAX_LAYERS)
        rng = np.random.default_rng(0)
        # a few layers' worth of weights, mutated in place as we go
        self.weights = [
            rng.integers(-7, 8, size=SHAPE).astype(np.int64) for _ in range(5)
        ]
        self.poisoned = False
        self.lookups = 0

    def _counted(self, call):
        """Run one engine-style call; ``None`` if it refused a corrupted entry.

        A served call counts one lookup, its layer's coefficients.  A
        refused one counts none: the entry is refused before counting.
        """
        before = self.cache.hits + self.cache.misses
        try:
            result = call()
        except CachePoisonedError:
            assert self.poisoned, "refused an entry nothing corrupted"
            assert self.cache.hits + self.cache.misses == before
            return None
        self.lookups += 1
        return result

    @rule(i=st.integers(min_value=0, max_value=4))
    def lookup(self, i):
        w = self.weights[i]
        coeff = self._counted(lambda: self.cache.layer_coeff(w, N_BITS))
        if coeff is None:
            return
        ref_coeff = fresh_coeff(w)
        assert coeff.dtype == ref_coeff.dtype
        assert np.array_equal(coeff, ref_coeff), "served a stale/wrong schedule"

    @rule(
        i=st.integers(min_value=0, max_value=4),
        r=st.integers(min_value=0, max_value=SHAPE[0] - 1),
        c=st.integers(min_value=0, max_value=SHAPE[1] - 1),
        v=st.integers(min_value=-7, max_value=7),
    )
    def mutate_weights_in_place(self, i, r, c, v):
        """Fine-tuning writes through the same buffer the cache saw."""
        self.weights[i][r, c] = v

    @rule(i=st.integers(min_value=0, max_value=4), seed=st.integers(0, 2**16))
    def matmul_parity(self, i, seed):
        x = np.random.default_rng(seed).integers(-7, 8, size=(SHAPE[1], 5))
        got = self._counted(lambda: self.cache.sc_matmul(self.weights[i], x, N_BITS))
        if got is None:
            return
        ref = sc_matmul(self.weights[i], x, N_BITS)
        assert np.array_equal(got, ref)

    @rule()
    def poison(self):
        """Every resident entry loses the shape its key promises."""
        corrupt_memo(self.cache)
        self.poisoned = True

    @rule()
    def recover(self):
        """The worker recovery path: drop the poisoned cache, rebuild."""
        if self.poisoned:
            self.cache = ScheduleCache(max_layers=MAX_LAYERS)
            self.poisoned = False
            self.lookups = 0

    @invariant()
    def eviction_bound_holds(self):
        assert self.cache.stats()["layers"] <= MAX_LAYERS

    @invariant()
    def counters_account_for_every_lookup(self):
        assert self.cache.hits + self.cache.misses == self.lookups


TestScheduleCacheStateful = CacheMachine.TestCase
TestScheduleCacheStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class TestCorruptedEntry:
    """A memo entry of the wrong shape is refused, and a new store recovers."""

    W = np.random.default_rng(1).integers(-7, 8, size=(4, 5))

    def _check(self, cache, fresh_store):
        coeff = cache.layer_coeff(self.W, N_BITS)
        corrupt_memo(cache, [layer_coeff_key(self.W, N_BITS)])
        with pytest.raises(CachePoisonedError, match="failed shape validation"):
            cache.layer_coeff(self.W, N_BITS)
        recomputed = fresh_store().layer_coeff(self.W, N_BITS)
        want = fresh_coeff(self.W)
        assert recomputed.dtype == want.dtype and np.array_equal(recomputed, want)
        assert np.array_equal(recomputed, coeff)

    def test_a_fresh_store_serves_the_recompute(self):
        self._check(ScheduleCache(), ScheduleCache)

    def test_reset_worker_cache_serves_the_recompute(self):
        reset_worker_cache()
        try:
            def fresh_process_store():
                reset_worker_cache()
                return get_worker_cache()

            self._check(get_worker_cache(), fresh_process_store)
        finally:
            reset_worker_cache()
