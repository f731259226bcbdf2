"""Replica-death chaos: kill one replica's dispatch path mid-stream.

The pool's contract under fire: a persistent fault on exactly one
replica (scoped by the per-replica fault key ``grouped@r1``) trips that
replica's breaker, the survivors absorb the queue, and every completed
response is bit-exact against the serial reference.  A dead replica
must cost retries, never wrong numbers — and never a black-holed pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import Counter

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, hooks
from repro.parallel import BatchInferenceEngine, ParallelConfig, predict_logits
from repro.serve import ServerConfig, ServingServer
from tests.faults.conftest import chaos_seeds, small_net

pytestmark = pytest.mark.chaos

SHARD = 2


class CountingEngine(BatchInferenceEngine):
    """Counts the images each replica answered successfully."""

    count_lock = threading.Lock()

    def __init__(self, net, config, answered: Counter) -> None:
        super().__init__(net, config)
        self.answered = answered

    def logits_grouped(self, xs, generator=None):
        out = super().logits_grouped(xs, generator)
        with self.count_lock:
            self.answered[self.name] += sum(x.shape[0] for x in xs)
        return out


def pool_factory(answered: Counter):
    """One private engine per replica; same seed, independent nets."""

    def factory(config):
        engine = CountingEngine(
            small_net(), ParallelConfig(workers=0, batch_size=SHARD), answered
        )
        return engine, (1, 28, 28), {"benchmark": "replica-chaos"}

    return factory


def server_config(**kw):
    defaults = dict(
        port=0,
        replicas=3,
        workers=0,
        max_batch=2,
        max_wait_ms=1.0,
        queue_depth=32,
        shard_batch=SHARD,
        breaker_threshold=2,
        breaker_cooldown_s=60.0,  # no recovery inside the test window
    )
    defaults.update(kw)
    return ServerConfig(**defaults)


def ragged_stream(images, seed, requests=8):
    """Deterministic ragged request slices over the image pool."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(requests):
        size = int(rng.integers(1, 4))
        lo = int(rng.integers(0, images.shape[0] - size + 1))
        stream.append((lo, lo + size))
    return stream


async def post_logits(port, images):
    from benchmarks.loadgen import http_request

    body = json.dumps({"images": images.tolist(), "return": "logits"}).encode()
    status, payload = await http_request(
        "127.0.0.1", port, "POST", "/v1/predict", body
    )
    return status, payload


class TestReplicaDeath:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_one_dead_replica_is_isolated_and_answers_stay_bit_exact(
        self, seed, net, images
    ):
        """r1 dies persistently; the stream completes 200/bit-exact and
        r1's breaker — alone — opens, visible in /healthz and /metrics.

        The survivors hold each dispatch for 50 ms, so groups overlap and
        least-loaded dispatch reaches r1 whatever the engine's own speed
        (a group that finds r0 idle never tries r1 at all).
        """
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "engine.dispatch", "raise",
                    times=None, key="grouped@r1",
                ),
            ) + tuple(
                FaultSpec(
                    "engine.dispatch", "delay",
                    times=None, key=f"grouped@{name}", seconds=0.05,
                )
                for name in ("r0", "r2")
            )
        )
        stream = ragged_stream(images, seed)
        reference = {
            (lo, hi): predict_logits(
                net, images[lo:hi], ParallelConfig(workers=0, batch_size=SHARD)
            )
            for (lo, hi) in set(stream)
        }

        answered = Counter()

        async def run():
            server = ServingServer(server_config(), engine_factory=pool_factory(answered))
            await server.start()
            try:
                with hooks.injected(plan):
                    results = await asyncio.gather(
                        *(post_logits(server.port, images[lo:hi])
                          for (lo, hi) in stream)
                    )
                for (lo, hi), (status, payload) in zip(stream, results):
                    assert status == 200, payload
                    served = np.asarray(json.loads(payload)["logits"])
                    assert np.array_equal(served, reference[(lo, hi)]), (
                        f"request {(lo, hi)} diverged under replica death"
                    )
                return server.pool.describe(), server.metrics
            finally:
                await server.drain_and_stop()

        replicas, metrics = asyncio.run(run())
        by_name = {doc["replica"]: doc for doc in replicas}
        assert by_name["r1"]["circuit"]["state"] == "open"
        for name in ("r0", "r2"):
            assert by_name[name]["circuit"]["state"] == "closed"
        # r1 only burned its 2 pre-trip tries; the survivors answered every
        # image of the stream, however its requests were coalesced
        assert by_name["r1"]["dispatches"] == 2
        assert answered["r1"] == 0
        assert answered["r0"] + answered["r2"] == sum(hi - lo for lo, hi in stream)
        # per-replica metric families tell the same story
        assert metrics.replica_circuit_state.value("r1") == 2.0
        assert metrics.replica_circuit_state.value("r0") == 0.0
        assert metrics.replica_circuit_state.value("r2") == 0.0
        assert metrics.replica_circuit_opened_total.value("r1") == 1.0
        assert metrics.replica_circuit_opened_total.value("r0") == 0.0
        assert metrics.circuit_opened_total.value() == 1.0
        # admission never refused: the pool still had healthy replicas
        assert metrics.rejected_total.value("circuit") == 0.0

    def test_whole_pool_dead_opens_the_circuit_with_retry_after(
        self, net, images
    ):
        """Every replica failing turns into fast 503s at admission, not
        a retry storm against dead engines."""
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(
                    "engine.dispatch", "raise",
                    times=None, key=f"grouped@r{i}",
                )
                for i in range(3)
            )
        )

        async def run():
            server = ServingServer(server_config(), engine_factory=pool_factory(Counter()))
            await server.start()
            try:
                with hooks.injected(plan):
                    # enough sequential requests to trip all three breakers
                    saw_500 = saw_503 = False
                    for _ in range(6):
                        status, payload = await post_logits(
                            server.port, images[:2]
                        )
                        if status == 500:
                            saw_500 = True
                        elif status == 503:
                            saw_503 = True
                            doc = json.loads(payload)
                            assert "circuit open" in doc["error"]
                            break
                    assert saw_500 and saw_503
                    from benchmarks.loadgen import http_request

                    _, health = await http_request(
                        "127.0.0.1", server.port, "GET", "/healthz"
                    )
                    health = json.loads(health)
                    assert health["circuit"]["state"] == "open"
                    states = [
                        r["circuit"]["state"]
                        for r in health["circuit"]["replicas"]
                    ]
                    assert states == ["open", "open", "open"]
                return server.metrics
            finally:
                await server.drain_and_stop()

        metrics = asyncio.run(run())
        assert metrics.rejected_total.value("circuit") >= 1.0
        assert metrics.circuit_opened_total.value() == 3.0
