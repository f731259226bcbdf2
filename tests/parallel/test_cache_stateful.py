"""Stateful model check of :class:`ScheduleCache`: never serve stale.

Hypothesis drives random interleavings of lookups, in-place weight
mutation (the fine-tuning hazard the content keying exists for), LRU
eviction pressure, poisoning, and recovery, asserting after every
lookup that the served schedule is bit-identical to a fresh recompute
of the weight's *current* content — i.e. the cache is observationally
equivalent to no cache at all, just faster.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.mvm import sc_matmul
from repro.parallel.cache import CachePoisonedError, ScheduleCache

N_BITS = 4
SHAPE = (3, 4)
MAX_LAYERS = 3  # small on purpose: eviction pressure in every run


def fresh_coeff(w: np.ndarray):
    """Ground truth: what an empty cache computes for today's content."""
    return ScheduleCache().layer_coeff(w, N_BITS)


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

    @rule(i=st.integers(min_value=0, max_value=4))
    def lookup(self, i):
        w = self.weights[i]
        if self.poisoned:
            with pytest.raises(CachePoisonedError):
                self.cache.layer_coeff(w, N_BITS)
            return
        coeff, const = self.cache.layer_coeff(w, N_BITS)
        self.lookups += 1
        ref_coeff, ref_const = fresh_coeff(w)
        assert coeff.dtype == ref_coeff.dtype
        assert np.array_equal(coeff, ref_coeff), "served a stale/wrong schedule"
        assert np.array_equal(const, ref_const)

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
        if self.poisoned:
            return
        x = np.random.default_rng(seed).integers(-7, 8, size=(SHAPE[1], 5))
        got = self.cache.sc_matmul(self.weights[i], x, N_BITS)
        self.lookups += 1
        ref = sc_matmul(self.weights[i], x, N_BITS)
        assert np.array_equal(got, ref)

    @rule()
    def poison(self):
        self.cache.poison()
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
