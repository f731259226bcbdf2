"""Micro-batcher invariants: nothing lost, nothing duplicated, FIFO, bounded.

The hypothesis property drives ragged request sizes and arrival gaps
through a real event loop and checks the batcher's whole contract at
once; the fixed tests pin each flush trigger and failure mode
individually.  Requests are id-encoded (request *i* is an array filled
with ``i``) so a mis-scattered result is always visible.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MicroBatcher


def id_array(i: int, size: int) -> np.ndarray:
    return np.full((size, 3), float(i))


def echo_runner(calls):
    """Runner returning each request's own array + 0.5, recording groups."""

    def run(xs, tags):
        calls.append([x.copy() for x in xs])
        return [x + 0.5 for x in xs]

    return run


async def drive(sizes, gaps, max_batch, max_wait_ms=2.0):
    """Submit id-encoded requests with the given inter-arrival sleeps."""
    calls: list[list[np.ndarray]] = []
    batcher = MicroBatcher(
        echo_runner(calls), max_batch_size=max_batch, max_wait_ms=max_wait_ms
    )
    await batcher.start()
    futures = []
    for i, size in enumerate(sizes):
        futures.append(batcher.submit(id_array(i, size)))
        if gaps[i % len(gaps)]:
            await asyncio.sleep(0.004)
    results = await asyncio.gather(*futures)
    await batcher.drain()
    return calls, results


class TestInvariants:
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=10),
        gaps=st.lists(st.booleans(), min_size=1, max_size=4),
        max_batch=st.integers(1, 16),
    )
    @settings(max_examples=30)
    def test_no_loss_no_dup_fifo_bounded(self, sizes, gaps, max_batch):
        calls, results = asyncio.run(drive(sizes, gaps, max_batch))

        # Every request resolves to exactly its own result, bit-exact.
        assert len(results) == len(sizes)
        for i, (size, res) in enumerate(zip(sizes, results)):
            assert np.array_equal(res, id_array(i, size) + 0.5)

        # FIFO across and within groups: the flattened dispatch order is
        # the submission order, each request exactly once.
        seen = [int(x[0, 0]) for group in calls for x in group]
        assert seen == list(range(len(sizes)))

        # A group never exceeds max_batch images unless it is a single
        # oversized request dispatched alone.
        for group in calls:
            total = sum(x.shape[0] for x in group)
            assert total <= max_batch or len(group) == 1


class TestFlushTriggers:
    def test_full_flush_dispatches_immediately(self):
        async def run():
            calls = []
            b = MicroBatcher(echo_runner(calls), max_batch_size=4, max_wait_ms=10_000)
            await b.start()
            futures = [b.submit(id_array(i, 2)) for i in (0, 1)]
            await asyncio.gather(*futures)  # resolves despite the huge wait
            await b.drain()
            assert [x.shape[0] for x in calls[0]] == [2, 2]
            assert b.metrics.batch_flush_total.value("full") == 1.0

        asyncio.run(run())

    def test_timeout_flush_when_group_stays_partial(self):
        async def run():
            calls = []
            b = MicroBatcher(echo_runner(calls), max_batch_size=64, max_wait_ms=5.0)
            await b.start()
            res = await b.submit(id_array(0, 1))
            assert np.array_equal(res, id_array(0, 1) + 0.5)
            assert b.metrics.batch_flush_total.value("timeout") == 1.0
            await b.drain()

        asyncio.run(run())

    def test_oversized_request_dispatched_alone(self):
        async def run():
            calls = []
            b = MicroBatcher(echo_runner(calls), max_batch_size=4, max_wait_ms=1.0)
            await b.start()
            await b.submit(id_array(0, 9))
            await b.drain()
            assert [x.shape[0] for x in calls[0]] == [9]

        asyncio.run(run())

    def test_overflow_request_held_for_next_group(self):
        async def run():
            calls = []
            b = MicroBatcher(echo_runner(calls), max_batch_size=4, max_wait_ms=50.0)
            await b.start()
            futures = [b.submit(id_array(i, 3)) for i in range(2)]
            await asyncio.gather(*futures)
            await b.drain()
            # 3 + 3 > 4: the second request must not ride in group one.
            assert [[x.shape[0] for x in g] for g in calls] == [[3], [3]]

        asyncio.run(run())


class TestTags:
    def test_a_mixed_tag_group_is_one_runner_call(self):
        """Requests tagged a, b, a and untagged coalesce into one group.

        The group is one runner call carrying every request's own tag,
        in submission order, and each request gets its own result.
        """
        calls = []

        def runner(xs, tags):
            calls.append(([int(x[0, 0]) for x in xs], tags))
            return [x + 0.5 for x in xs]

        async def run():
            b = MicroBatcher(runner, max_batch_size=4, max_wait_ms=10_000)
            await b.start()
            tags = ["a", "b", "a", None]
            futures = [b.submit(id_array(i, 1), tag=tag) for i, tag in enumerate(tags)]
            results = await asyncio.gather(*futures)
            await b.drain()
            return results

        results = asyncio.run(run())
        assert calls == [([0, 1, 2, 3], ["a", "b", "a", None])]
        for i, res in enumerate(results):
            assert np.array_equal(res, id_array(i, 1) + 0.5)

    def test_an_untagged_group_is_one_runner_call_with_a_none_per_request(self):
        calls = []

        def runner(xs, tags):
            calls.append(([int(x[0, 0]) for x in xs], tags))
            return [x + 0.5 for x in xs]

        async def run():
            b = MicroBatcher(runner, max_batch_size=3, max_wait_ms=10_000)
            await b.start()
            results = await asyncio.gather(*(b.submit(id_array(i, 1)) for i in range(3)))
            await b.drain()
            return results

        results = asyncio.run(run())
        assert calls == [([0, 1, 2], [None, None, None])]
        for i, res in enumerate(results):
            assert np.array_equal(res, id_array(i, 1) + 0.5)

    def test_an_untagged_group_through_the_engine_pool_is_bit_exact(self):
        """Untagged requests served via :class:`EnginePool` run under the
        engine's own SNG family: each answer equals ``logits_grouped(xs)``."""
        from repro.nn import attach_engines, build_mnist_net
        from repro.nn.calibration import LayerRanges
        from repro.parallel import BatchInferenceEngine, ParallelConfig
        from repro.serve import EnginePool

        net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
        ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
        attach_engines(net, "lfsr-sc", ranges, n_bits=6, generator="halton")
        engine = BatchInferenceEngine(net, ParallelConfig(workers=0, batch_size=2))
        rng = np.random.default_rng(5)
        xs = [rng.normal(0.0, 0.5, size=(n, 1, 28, 28)) for n in (3, 1, 2)]

        async def run():
            b = MicroBatcher(EnginePool(engine).run_grouped, max_batch_size=6, max_wait_ms=10_000)
            await b.start()
            results = await asyncio.gather(*(b.submit(x) for x in xs))
            await b.drain()
            return results

        groups = []
        engine.add_hook(lambda n, seconds, workers: groups.append(n))
        served = asyncio.run(run())
        assert groups == [6]  # the three requests coalesced into one call
        for got, want in zip(served, engine.logits_grouped(xs), strict=True):
            assert np.array_equal(got, want)


class TestLifecycleAndErrors:
    def test_submit_before_start_and_after_drain_rejected(self):
        async def run():
            b = MicroBatcher(echo_runner([]), max_batch_size=4)
            with pytest.raises(RuntimeError):
                b.submit(id_array(0, 1))
            await b.start()
            await b.drain()
            with pytest.raises(RuntimeError):
                b.submit(id_array(0, 1))

        asyncio.run(run())

    def test_drain_flushes_everything_queued(self):
        async def run():
            release = threading.Event()
            calls = []

            def slow(xs, tags):
                release.wait(2.0)
                calls.append(list(xs))
                return [x + 0.5 for x in xs]

            b = MicroBatcher(slow, max_batch_size=2, max_wait_ms=1.0)
            await b.start()
            futures = [b.submit(id_array(i, 1)) for i in range(5)]
            await asyncio.sleep(0.01)  # first group is now blocked in-runner
            release.set()
            drain = asyncio.create_task(b.drain())
            results = await asyncio.gather(*futures)
            await drain
            for i, res in enumerate(results):
                assert np.array_equal(res, id_array(i, 1) + 0.5)
            assert b.depth == 0

        asyncio.run(run())

    def test_runner_exception_fans_out_to_whole_group(self):
        async def run():
            def boom(xs, tags):
                raise ValueError("engine on fire")

            b = MicroBatcher(boom, max_batch_size=8, max_wait_ms=1.0)
            await b.start()
            futures = [b.submit(id_array(i, 1)) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, ValueError) for r in results)
            await b.drain()

        asyncio.run(run())

    def test_runner_length_mismatch_is_an_error(self):
        async def run():
            b = MicroBatcher(lambda xs, tags: [xs[0]], max_batch_size=8, max_wait_ms=1.0)
            await b.start()
            futures = [b.submit(id_array(i, 1)) for i in range(2)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            await b.drain()

        asyncio.run(run())

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs, tags: xs, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs, tags: xs, max_wait_ms=-1.0)
