"""Fixed-scenario worker faults: every recovery is bit-exact or loud.

Each test injects one deterministic fault schedule into the pool path
and asserts the strong form of the recovery contract: the result is
``np.array_equal`` to the undisturbed serial reference — recovery is
re-execution, never approximation.  The budget-exhaustion tests pin the
failure side: when recovery is impossible the engine raises a typed
error instead of returning anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, hooks
from repro.nn.engines import ProposedScEngine
from repro.parallel import (
    ParallelConfig,
    PoolRespawnError,
    RetryPolicy,
    ShardFailedError,
    parallel_matmul,
    predict_logits,
)

pytestmark = pytest.mark.chaos

#: 6 images at batch_size=2 -> shards 0, 1, 2.
CFG = ParallelConfig(
    workers=2,
    batch_size=2,
    retry=RetryPolicy(max_attempts=3, max_pool_respawns=2, backoff_base_s=0.01),
)


def plan_of(*specs: FaultSpec) -> FaultPlan:
    return FaultPlan(specs=tuple(specs))


def test_shard_raise_is_retried_bit_exact(net, images, serial_logits):
    with hooks.injected(plan_of(FaultSpec("worker.shard", "raise", index=1, attempt=0))):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_worker_crash_respawns_pool_bit_exact(net, images, serial_logits):
    """os._exit mid-shard: dead-worker detection + pool respawn."""
    with hooks.injected(plan_of(FaultSpec("worker.shard", "crash", index=2, attempt=0))):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_corrupted_output_block_is_recomputed(net, images, serial_logits):
    """A torn output write is re-executed, not papered over."""
    with hooks.injected(
        plan_of(FaultSpec("worker.shard", "corrupt_output", index=0, attempt=0))
    ):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_poisoned_cache_is_detected_and_dropped(net, images, serial_logits):
    """poison_cache + a failure: the retry must not see stale schedules."""
    with hooks.injected(
        plan_of(
            FaultSpec("worker.shard", "poison_cache", index=1, attempt=0),
            FaultSpec("worker.shard", "raise", index=1, attempt=0),
        )
    ):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_poisoned_cache_alone_fails_loud_then_recovers(net, images, serial_logits):
    """Poison with no paired failure: the *next lookup* must raise.

    The forward pass behind the poisoned cache hits CachePoisonedError,
    the shard attempt fails, the worker drops its caches, and the retry
    recomputes — the poison can never be silently folded into logits.
    """
    with hooks.injected(
        plan_of(FaultSpec("worker.shard", "poison_cache", index=0, attempt=0))
    ):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_hung_shard_redispatched_within_timeout(net, images, serial_logits):
    """A shard sleeping past shard_timeout_s is re-dispatched; the
    straggler's eventual disjoint identical write is harmless."""
    cfg = ParallelConfig(
        workers=2,
        batch_size=2,
        retry=RetryPolicy(max_attempts=3, shard_timeout_s=0.75),
    )
    with hooks.injected(
        plan_of(FaultSpec("worker.shard", "delay", index=1, attempt=0, seconds=2.5))
    ):
        out = predict_logits(net, images, cfg)
    assert np.array_equal(out, serial_logits)


def test_repeated_crash_exhausts_respawn_budget(net, images):
    """A persistent crash fault breaks every wave -> PoolRespawnError."""
    with hooks.injected(
        plan_of(FaultSpec("worker.shard", "crash", index=0, attempt=None, times=None))
    ):
        with pytest.raises(PoolRespawnError, match="respawn budget"):
            predict_logits(net, images, CFG)


def test_persistent_raise_exhausts_attempts(net, images):
    with hooks.injected(
        plan_of(FaultSpec("worker.shard", "raise", index=0, attempt=None, times=None))
    ):
        with pytest.raises(ShardFailedError, match="shard 0 failed"):
            predict_logits(net, images, CFG)


def test_worker_init_crash_recovers(net, images, serial_logits):
    """A worker dying in its initializer (spawn wave 0) respawns clean."""
    with hooks.injected(plan_of(FaultSpec("worker.init", "crash", attempt=0))):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_matmul_shard_faults_recover_bit_exact(rng):
    engine = ProposedScEngine(n_bits=8)
    w = rng.normal(0.0, 0.3, size=(8, 16))
    x = rng.normal(0.0, 0.3, size=(16, 10))
    ref = engine.matmul(w, x)
    cfg = ParallelConfig(workers=2, batch_size=4, tile_size=4, retry=CFG.retry)
    with hooks.injected(
        plan_of(
            FaultSpec("worker.shard", "raise", index=0, attempt=0),
            FaultSpec("worker.shard", "crash", index=3, attempt=0),
        )
    ):
        out = parallel_matmul(engine, w, x, cfg)
    assert np.array_equal(out, ref)


def test_corrupt_output_and_raise_recover_bit_exact(net, images, serial_logits):
    """A corrupted output block plus a raise on another shard.

    Both shards re-execute, and the recovered logits must equal the
    undisturbed serial reference.
    """
    with hooks.injected(
        plan_of(
            FaultSpec("worker.shard", "corrupt_output", index=0, attempt=0),
            FaultSpec("worker.shard", "raise", index=1, attempt=0),
        )
    ):
        out = predict_logits(net, images, CFG)
    assert np.array_equal(out, serial_logits)


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_pool_respawns=-1)
    with pytest.raises(ValueError):
        RetryPolicy(shard_timeout_s=0.0)
    policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(5) == pytest.approx(0.5)  # capped
    assert policy.backoff_s(0) == 0.0
