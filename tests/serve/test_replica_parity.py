"""Serving parity: the shard threads must be invisible in the numbers.

The same request stream served at ``--workers`` 0, 2 and 3 must be
bit-equal — per request — to serial ``Network.predict`` at the server's
shard batch.  Each server builds its *own* net from the same seed, so
any state leak between the shard threads, mis-sharded group, or shard
that spans two requests shows up as a numeric diff, not a flake.

Hypothesis drives ragged request streams (sizes and image subsets);
a fixed-golden test pins the served classes so a silent numeric drift
in the whole stack (net, engine, batcher, HTTP codec) is also caught.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import BatchInferenceEngine, ParallelConfig
from repro.serve import ServerConfig, ServingServer
from tests.serve.client import request

SHARD = 4
WORKER_SWEEP = (0, 2, 3)


def fresh_net():
    """Same seed every call: identical weights, independent objects."""
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=8)
    return net


def engine_factory(config):
    """Called once by the server: a fully private engine."""
    engine = BatchInferenceEngine(
        fresh_net(), ParallelConfig(workers=config.workers, batch_size=SHARD)
    )
    return engine, (1, 28, 28), {"benchmark": "parity"}


@pytest.fixture(scope="module")
def reference_net():
    return fresh_net()


@pytest.fixture(scope="module")
def image_pool():
    rng = np.random.default_rng(23)
    return rng.normal(0.0, 0.5, size=(6, 1, 28, 28))


@pytest.fixture(scope="module")
def reference():
    """Cache of serial predictions keyed by the request's image indices."""
    net = fresh_net()
    rng = np.random.default_rng(23)
    pool = rng.normal(0.0, 0.5, size=(6, 1, 28, 28))
    cache: dict[tuple[int, ...], list[int]] = {}

    def lookup(indices: tuple[int, ...]) -> list[int]:
        if indices not in cache:
            cache[indices] = net.predict(pool[list(indices)], batch=SHARD).tolist()
        return cache[indices]

    return lookup


async def post_raw(port, doc: dict) -> tuple[int, dict]:
    status, _, body = await request(port, "POST", "/v1/predict", doc)
    return status, json.loads(body)


async def post_predict(port, images, generator=None) -> list[int]:
    doc = {"images": images.tolist()}
    if generator is not None:
        doc["generator"] = generator
    status, body = await post_raw(port, doc)
    assert status == 200, body
    return body["classes"]


def serve_stream(workers, image_pool, requests, concurrent=False):
    """Boot a server, serve every request, return per-request classes."""

    async def run():
        server = ServingServer(
            ServerConfig(
                port=0,
                workers=workers,
                shard_batch=SHARD,
                max_wait_ms=1.0,
                queue_depth=32,
            ),
            engine_factory=engine_factory,
        )
        await server.start()
        try:
            coros = [
                post_predict(server.port, image_pool[list(indices)])
                for indices in requests
            ]
            if concurrent:
                return await asyncio.gather(*coros)
            return [await c for c in coros]
        finally:
            await server.drain_and_stop()

    return asyncio.run(run())


request_streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5).map(tuple),
    min_size=1,
    max_size=4,
)


class TestReplicaParity:
    @settings(max_examples=8, deadline=None)
    @given(stream=request_streams)
    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    def test_ragged_streams_bit_equal_to_serial(
        self, workers, stream, image_pool, reference
    ):
        served = serve_stream(workers, image_pool, stream)
        for indices, classes in zip(stream, served):
            assert classes == reference(indices), (
                f"workers={workers} request {indices} diverged from serial"
            )

    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    def test_concurrent_requests_never_leak_across_boundaries(
        self, workers, image_pool, reference
    ):
        """Distinct in-flight requests each match their own serial run."""
        stream = [(0, 1, 2), (3,), (4, 5), (2, 4), (5, 0, 1, 3)]
        served = serve_stream(workers, image_pool, stream, concurrent=True)
        for indices, classes in zip(stream, served):
            assert classes == reference(indices)

    def test_fixed_stream_golden(self, image_pool, reference, golden):
        """Pin the served classes so numeric drift anywhere is visible."""
        stream = [(0, 1, 2, 3), (4, 5), (1, 3, 5)]
        rendered = {}
        for workers in WORKER_SWEEP:
            served = serve_stream(workers, image_pool, stream)
            rendered[workers] = served
            for indices, classes in zip(stream, served):
                assert classes == reference(indices)
        # every shard-thread count served the identical answers
        assert rendered[0] == rendered[2] == rendered[3]
        lines = [f"stream={list(stream)!r}"]
        for indices, classes in zip(stream, rendered[0]):
            lines.append(f"{list(indices)!r} -> {classes!r}")
        golden.check("replica_parity_classes.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the generator axis: per-request SNG family overrides through the server

GEN_BITS = 6  # lfsr-sc at a width where every registry family is cheap


def fresh_lfsr_net():
    """Same seed every call, with the generator-aware lfsr-sc engine."""
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "lfsr-sc", ranges, n_bits=GEN_BITS)
    return net


def lfsr_engine_factory(config):
    engine = BatchInferenceEngine(
        fresh_lfsr_net(), ParallelConfig(workers=config.workers, batch_size=SHARD)
    )
    return engine, (1, 28, 28), {"benchmark": "parity-gen"}


def serve_generator_stream(workers, image_pool, requests, concurrent=False):
    """Serve ``(indices, generator)`` requests against a server."""

    async def run():
        server = ServingServer(
            ServerConfig(
                port=0,
                workers=workers,
                shard_batch=SHARD,
                max_wait_ms=1.0,
                queue_depth=32,
            ),
            engine_factory=lfsr_engine_factory,
        )
        await server.start()
        try:
            coros = [
                post_predict(server.port, image_pool[list(indices)], generator=gen)
                for indices, gen in requests
            ]
            if concurrent:
                return await asyncio.gather(*coros)
            return [await c for c in coros]
        finally:
            await server.drain_and_stop()

    return asyncio.run(run())


@pytest.fixture(scope="module")
def generator_reference(image_pool):
    """Serial predictions keyed by (image indices, generator spec)."""
    net = fresh_lfsr_net()
    cache: dict[tuple, list[int]] = {}

    def lookup(indices, generator) -> list[int]:
        key = (tuple(indices), generator)
        if key not in cache:
            cache[key] = net.predict(
                image_pool[list(indices)], batch=SHARD, generator=generator
            ).tolist()
        return cache[key]

    return lookup


class TestGeneratorAxis:
    """Mixed per-request ``generator=`` overrides stay bit-exact."""

    MIXED = [
        ((0, 1, 2), None),
        ((3, 4), "mip"),
        ((5, 0), "halton"),
        ((1, 2, 3), "parallel"),
        ((4,), "mip"),
        ((5, 1), "lfsr"),
        ((2, 5), "ed"),
    ]

    @pytest.mark.parametrize("workers", (0, 2))
    def test_mixed_generator_stream_bit_equal_to_serial(
        self, workers, image_pool, generator_reference
    ):
        served = serve_generator_stream(workers, image_pool, self.MIXED)
        for (indices, gen), classes in zip(self.MIXED, served):
            assert classes == generator_reference(indices, gen), (
                f"workers={workers} request {indices} generator={gen} "
                "diverged from serial"
            )

    def test_concurrent_mixed_generators_never_cross_contaminate(
        self, image_pool, generator_reference
    ):
        """In-flight requests with different tags coalesce in one batcher
        group yet each must match its own generator's serial run."""
        served = serve_generator_stream(2, image_pool, self.MIXED, concurrent=True)
        for (indices, gen), classes in zip(self.MIXED, served):
            assert classes == generator_reference(indices, gen)

    def test_explicit_lfsr_equals_default(self, image_pool):
        stream = [((0, 1, 2, 3), None), ((0, 1, 2, 3), "lfsr")]
        served = serve_generator_stream(0, image_pool, stream)
        assert served[0] == served[1]

    def test_unknown_generator_is_a_clean_400(self, image_pool):
        async def run():
            server = ServingServer(
                ServerConfig(port=0, workers=2, shard_batch=SHARD, max_wait_ms=1.0),
                engine_factory=lfsr_engine_factory,
            )
            await server.start()
            try:
                status, body = await post_raw(
                    server.port,
                    {"images": image_pool[:1].tolist(), "generator": "mersenne"},
                )
                assert status == 400
                assert "unknown generator" in body["error"]
                # the refusal happened at admission: serving is unharmed
                classes = await post_predict(server.port, image_pool[[0]])
                assert len(classes) == 1
            finally:
                await server.drain_and_stop()

        asyncio.run(run())

    def test_meta_and_metrics_list_generator_families(self, image_pool):
        from repro.sc.generators import generator_keys

        async def run():
            server = ServingServer(
                ServerConfig(port=0, workers=0, shard_batch=SHARD, max_wait_ms=1.0),
                engine_factory=lfsr_engine_factory,
            )
            await server.start()
            try:
                assert server.model_meta["generators"] == generator_keys()
                text = server.metrics.render()
                for key in generator_keys():
                    assert f'repro_generator_info{{generator="{key}"}} 1' in text
            finally:
                await server.drain_and_stop()

        asyncio.run(run())
