"""Serving-plane chaos: circuit breaker, engine failure storms, drain kills.

The breaker unit tests drive state transitions on a fake clock (no
sleeping); the service-level tests use a failable stub runner; the
end-of-file tests run the real stack — HTTP server over a real engine,
or over a real engine that fails its first calls, served through
``engine_factory`` — and still demand bit-exact answers.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    InferenceService,
    MicroBatcher,
)
from tests.serve.client import request

pytestmark = pytest.mark.chaos


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = Clock()
        b = CircuitBreaker(failure_threshold=3, cooldown_s=5.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == b.CLOSED and b.allow()
        b.record_failure()
        assert b.state == b.OPEN
        assert not b.allow()
        assert b.opened_total == 1
        assert 0 < b.retry_after_s <= 5.0

    def test_success_resets_the_failure_count(self):
        b = CircuitBreaker(failure_threshold=2, clock=Clock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == b.CLOSED

    def test_half_open_single_probe_then_close_on_success(self):
        clock = Clock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.now = 5.0
        assert b.state == b.HALF_OPEN
        assert b.allow()  # the one probe
        assert not b.allow()  # concurrent requests still refused
        b.record_success()
        assert b.state == b.CLOSED and b.allow()

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        clock = Clock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        b.record_failure()
        clock.now = 5.0
        assert b.allow()
        b.record_failure()  # probe failed
        assert b.state == b.OPEN and not b.allow()
        assert b.retry_after_s == pytest.approx(5.0)
        clock.now = 10.0
        assert b.allow()  # next probe slot

    def test_inconclusive_probe_releases_the_slot(self):
        clock = Clock()
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0, clock=clock)
        b.record_failure()
        clock.now = 1.0
        assert b.allow() and not b.allow()
        b.record_inconclusive()  # e.g. the probe hit its client deadline
        assert b.allow()  # immediately probe again

    def test_describe_document(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=2.0, clock=Clock())
        doc = b.describe()
        assert doc["state"] == "closed" and doc["failures"] == 0
        b.record_failure()
        assert b.describe()["state"] == "open"
        assert b.describe()["opened_total"] == 1


def failing_then_ok_runner(fail_first_n: int):
    """Stub engine: the first N dispatches raise, the rest echo."""
    calls = {"n": 0}

    def run(xs, tags):
        calls["n"] += 1
        if calls["n"] <= fail_first_n:
            raise RuntimeError(f"engine failure #{calls['n']}")
        return [x + 1.0 for x in xs]

    return run


async def _service(runner, breaker: CircuitBreaker, **kwargs):
    batcher = MicroBatcher(runner, max_batch_size=1, max_wait_ms=0.0)
    service = InferenceService(batcher, queue_depth=8, breaker=breaker, **kwargs)
    await service.start()
    return service


def one_image(i: int = 0) -> np.ndarray:
    return np.full((1, 2), float(i))


class TestServiceCircuit:
    def test_engine_failure_storm_opens_the_circuit(self):
        async def run():
            clock = Clock()
            breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0, clock=clock)
            service = await _service(failing_then_ok_runner(3), breaker)
            for i in range(3):
                with pytest.raises(RuntimeError, match="engine failure"):
                    await service.predict(one_image(i))
            # circuit now open: refusal happens up front, no engine work
            with pytest.raises(CircuitOpenError) as info:
                await service.predict(one_image(9))
            assert info.value.retry_after_s > 0
            m = service.metrics
            assert m.rejected_total.value("circuit") == 1.0
            assert m.circuit_opened_total.value() == 1.0
            assert m.circuit_state.value() == 2.0  # open
            await service.drain()

        asyncio.run(run())

    def test_half_open_probe_recovers_service(self):
        async def run():
            clock = Clock()
            breaker = CircuitBreaker(failure_threshold=2, cooldown_s=30.0, clock=clock)
            service = await _service(failing_then_ok_runner(2), breaker)
            for i in range(2):
                with pytest.raises(RuntimeError):
                    await service.predict(one_image(i))
            with pytest.raises(CircuitOpenError):
                await service.predict(one_image())
            clock.now = 30.0  # cooldown elapsed: next request is the probe
            result = await service.predict(one_image(5))
            assert np.array_equal(result, one_image(5) + 1.0)
            assert breaker.state == breaker.CLOSED
            # service fully recovered
            result = await service.predict(one_image(6))
            assert np.array_equal(result, one_image(6) + 1.0)
            await service.drain()

        asyncio.run(run())

    def test_failed_probe_reopens(self):
        async def run():
            clock = Clock()
            breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0, clock=clock)
            service = await _service(failing_then_ok_runner(2), breaker)
            with pytest.raises(RuntimeError):
                await service.predict(one_image())
            clock.now = 10.0
            with pytest.raises(RuntimeError):  # the probe itself fails
                await service.predict(one_image())
            with pytest.raises(CircuitOpenError):  # re-opened, full cooldown
                await service.predict(one_image())
            await service.drain()

        asyncio.run(run())


class TestServeEndToEnd:
    """The real stack: HTTP front end over a real engine."""

    @staticmethod
    def _config(**kw):
        from repro.serve import ServerConfig

        defaults = dict(
            port=0,
            workers=2,
            max_batch=8,
            max_wait_ms=2.0,
            queue_depth=16,
            shard_batch=2,
            breaker_threshold=3,
            breaker_cooldown_s=0.2,
        )
        defaults.update(kw)
        return ServerConfig(**defaults)

    @staticmethod
    def _factory(net, input_shape, config, engine_class=None):
        from repro.parallel import BatchInferenceEngine, ParallelConfig

        engine = (engine_class or BatchInferenceEngine)(
            net, ParallelConfig(workers=config.workers, batch_size=config.shard_batch)
        )
        return engine, input_shape, {"benchmark": "chaos-net"}

    def test_unknown_generator_storm_is_400s_and_never_trips_breaker(
        self, net, images, serial_logits
    ):
        """A storm of unknown-``generator`` requests is refused at
        admission (400 naming the registry) and must never count against
        the engine circuit: after more bad requests than the breaker
        threshold, the circuit is still closed and a valid request is
        served bit-exact."""
        from repro.serve import ServingServer

        async def run():
            config = self._config(workers=0)
            server = ServingServer(
                config,
                engine_factory=lambda c: self._factory(net, (1, 28, 28), c),
            )
            await server.start()
            bad = {"images": images.tolist(), "generator": "mersenne"}
            good = {"images": images.tolist(), "return": "logits", "generator": "lfsr"}
            try:
                for _ in range(config.breaker_threshold + 2):
                    status, _, payload = await request(server.port, "POST", "/v1/predict", bad)
                    assert status == 400
                    assert "unknown generator" in json.loads(payload)["error"]
                assert server.service.breaker.state == "closed"
                status, _, payload = await request(server.port, "POST", "/v1/predict", good)
                assert status == 200
                served = np.asarray(json.loads(payload)["logits"])
                assert np.array_equal(served, serial_logits)
            finally:
                await server.drain_and_stop()

        asyncio.run(run())

    def test_engine_dispatch_fault_storm_opens_circuit_then_recovers(
        self, net, images, serial_logits
    ):
        """Repeated engine failures -> 500s -> circuit opens (503 +
        Retry-After) -> half-open probe recovers bit-exact, on an engine
        whose shards run on two threads."""
        from repro.parallel import BatchInferenceEngine
        from repro.serve import ServingServer

        class FailingEngine(BatchInferenceEngine):
            """A real engine whose first three grouped calls raise."""

            failures_left = 3

            def logits_grouped(self, xs, generator=None):
                if self.failures_left:
                    self.failures_left -= 1
                    raise RuntimeError("engine dispatch failed")
                return super().logits_grouped(xs, generator)

        async def run():
            config = self._config()
            server = ServingServer(
                config,
                engine_factory=lambda c: self._factory(net, (1, 28, 28), c, FailingEngine),
            )
            await server.start()
            body = {"images": images.tolist(), "return": "logits"}
            try:
                for _ in range(3):  # three failing dispatches trip it
                    status, _, _ = await request(server.port, "POST", "/v1/predict", body)
                    assert status == 500
                status, _, payload = await request(server.port, "POST", "/v1/predict", body)
                assert status == 503
                assert "circuit open" in json.loads(payload)["error"]
                _, _, health = await request(server.port, "GET", "/healthz")
                assert json.loads(health)["circuit"]["state"] in ("open", "half_open")
                await asyncio.sleep(config.breaker_cooldown_s + 0.05)
                # half-open probe: the engine's failures are spent, so
                # it succeeds, closes the circuit, and is bit-exact
                status, _, payload = await request(server.port, "POST", "/v1/predict", body)
                assert status == 200
                served = np.asarray(json.loads(payload)["logits"])
                assert np.array_equal(served, serial_logits)
                assert server.service.breaker.state == "closed"
            finally:
                await server.drain_and_stop()

        asyncio.run(run())
