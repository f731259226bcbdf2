"""Admission-layer policy: backpressure, deadlines, drain semantics."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceededError,
    InferenceService,
    MicroBatcher,
    QueueFullError,
    ShuttingDownError,
)


def blocking_runner(release: threading.Event):
    """Runner that parks in the executor until the test releases it."""

    def run(xs, tags):
        release.wait(5.0)
        return [x + 1.0 for x in xs]

    return run


async def started_service(runner, queue_depth=2, max_wait_ms=1.0, **kwargs):
    batcher = MicroBatcher(runner, max_batch_size=64, max_wait_ms=max_wait_ms)
    service = InferenceService(batcher, queue_depth=queue_depth, **kwargs)
    await service.start()
    return service


def one_image(i: int = 0) -> np.ndarray:
    return np.full((1, 2), float(i))


class TestBackpressure:
    def test_overflow_request_refused_with_retry_hint(self):
        async def run():
            release = threading.Event()
            service = await started_service(blocking_runner(release), queue_depth=2)
            first = asyncio.ensure_future(service.predict(one_image(0)))
            second = asyncio.ensure_future(service.predict(one_image(1)))
            await asyncio.sleep(0.03)  # both admitted, runner blocked
            assert service.inflight == 2
            with pytest.raises(QueueFullError) as info:
                await service.predict(one_image(2))
            assert info.value.retry_after_s >= 1.0
            assert service.metrics.rejected_total.value("backpressure") == 1.0
            release.set()
            results = await asyncio.gather(first, second)
            assert np.array_equal(results[0], one_image(0) + 1.0)
            assert np.array_equal(results[1], one_image(1) + 1.0)
            await service.drain()

        asyncio.run(run())

    def test_inflight_slot_freed_after_completion(self):
        async def run():
            service = await started_service(lambda xs, tags: [x for x in xs], queue_depth=1)
            for i in range(3):  # sequential requests reuse the one slot
                await service.predict(one_image(i))
            assert service.inflight == 0
            assert service.accepted == 3
            await service.drain()

        asyncio.run(run())


class TestDeadlines:
    def test_expired_deadline_raises_504_error(self):
        async def run():
            release = threading.Event()
            service = await started_service(blocking_runner(release), queue_depth=4)
            with pytest.raises(DeadlineExceededError):
                await service.predict(one_image(), deadline_ms=30.0)
            assert service.metrics.rejected_total.value("deadline") == 1.0
            assert service.inflight == 0
            release.set()
            await service.drain()

        asyncio.run(run())

    def test_default_deadline_applies_when_request_has_none(self):
        async def run():
            release = threading.Event()
            service = await started_service(
                blocking_runner(release), queue_depth=4, default_deadline_ms=30.0
            )
            with pytest.raises(DeadlineExceededError):
                await service.predict(one_image())
            release.set()
            await service.drain()

        asyncio.run(run())

    def test_generous_deadline_still_answers(self):
        async def run():
            service = await started_service(lambda xs, tags: [x * 2 for x in xs])
            result = await service.predict(one_image(3), deadline_ms=5000.0)
            assert np.array_equal(result, one_image(3) * 2)
            await service.drain()

        asyncio.run(run())


class TestDrain:
    def test_drain_refuses_new_but_finishes_accepted(self):
        async def run():
            import time

            def slowish(xs, tags):
                time.sleep(0.05)
                return [x + 1.0 for x in xs]

            service = await started_service(slowish, queue_depth=8)
            accepted = asyncio.ensure_future(service.predict(one_image(7)))
            await asyncio.sleep(0)  # let the predict coroutine enqueue
            drain = asyncio.create_task(service.drain())
            await asyncio.sleep(0)  # drain has started: admission is closed
            with pytest.raises(ShuttingDownError):
                await service.predict(one_image(8))
            assert service.metrics.rejected_total.value("shutdown") == 1.0
            result = await accepted  # admitted before drain: must resolve
            assert np.array_equal(result, one_image(7) + 1.0)
            await drain
            assert not service.ready and service.draining

        asyncio.run(run())

    def test_ready_tracks_lifecycle(self):
        async def run():
            service = await started_service(lambda xs, tags: list(xs))
            assert service.ready
            assert service.metrics.ready.value() == 1.0
            await service.drain()
            assert not service.ready
            assert service.metrics.ready.value() == 0.0

        asyncio.run(run())

    def test_queue_depth_validation(self):
        batcher = MicroBatcher(lambda xs, tags: xs)
        with pytest.raises(ValueError):
            InferenceService(batcher, queue_depth=0)
