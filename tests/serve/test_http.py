"""HTTP front end: routing, status codes, parity, drain — over real sockets.

The bit-exactness tests run a genuine tiny SC net behind the server and
compare served classes against serial ``Network.predict`` at the same
shard chunking; protocol/status tests use a stub engine so they stay
millisecond-fast.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import BatchInferenceEngine, ParallelConfig
from repro.serve import (
    RAW_CONTENT_TYPE,
    ServerConfig,
    ServingServer,
    pack_raw_request,
)
from tests.serve.client import http_payload, read_response, request

SHARD = 4


@pytest.fixture(scope="module")
def net():
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=8)
    return net


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 0.5, size=(5, 1, 28, 28))


def real_factory(net):
    def factory(config):
        engine = BatchInferenceEngine(
            net, ParallelConfig(workers=0, batch_size=SHARD)
        )
        return engine, (1, 28, 28), {"benchmark": "tiny"}

    return factory


class StubEngine:
    """Engine double: fixed logits, optionally gated by an event."""

    def __init__(self, behave=None):
        self.config = ParallelConfig(workers=1)
        self.behave = behave
        self.hooks = []

    def add_hook(self, hook):
        self.hooks.append(hook)

    def logits(self, x):
        return np.zeros((x.shape[0], 3))

    def logits_grouped(self, xs, generator=None):
        if self.behave is not None:
            return self.behave(xs)
        return [np.tile(np.array([0.1, 0.9, 0.2]), (x.shape[0], 1)) for x in xs]


def stub_factory(behave=None):
    def factory(config):
        return StubEngine(behave), (2, 2), {"benchmark": "stub"}

    return factory


def with_server(factory, coro, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("max_wait_ms", 1.0)

    async def run():
        server = ServingServer(ServerConfig(**config_kwargs), engine_factory=factory)
        await server.start()
        try:
            return await coro(server)
        finally:
            await server.drain_and_stop()

    return asyncio.run(run())


class TestPredictParity:
    def test_served_classes_bit_exact_vs_serial(self, net, images):
        async def check(server):
            status, _, body = await request(
                server.port, "POST", "/v1/predict",
                {"images": images.tolist(), "return": "both"},
            )
            assert status == 200
            doc = json.loads(body)
            assert doc["n"] == images.shape[0]
            expected = net.predict(images, batch=SHARD)
            assert doc["classes"] == expected.tolist()
            assert np.asarray(doc["logits"]).shape == (images.shape[0], 10)
            return doc

        with_server(real_factory(net), check, shard_batch=SHARD)

    def test_concurrent_ragged_requests_each_bit_exact(self, net, images):
        async def check(server):
            async def one(lo, hi):
                status, _, body = await request(
                    server.port, "POST", "/v1/predict",
                    {"images": images[lo:hi].tolist()},
                )
                assert status == 200
                return json.loads(body)["classes"]

            served = await asyncio.gather(one(0, 2), one(2, 3), one(3, 5))
            for (lo, hi), classes in zip(((0, 2), (2, 3), (3, 5)), served):
                assert classes == net.predict(images[lo:hi], batch=SHARD).tolist()

        with_server(real_factory(net), check, shard_batch=SHARD, max_wait_ms=20.0)

    def test_single_image_auto_wrapped(self, net, images):
        async def check(server):
            status, _, body = await request(
                server.port, "POST", "/v1/predict", {"images": images[0].tolist()}
            )
            assert status == 200
            doc = json.loads(body)
            assert doc["n"] == 1
            assert doc["classes"] == net.predict(images[:1], batch=SHARD).tolist()

        with_server(real_factory(net), check, shard_batch=SHARD)


class TestRoutingAndValidation:
    def test_healthz_reports_readiness_and_model(self):
        async def check(server):
            status, _, body = await request(server.port, "GET", "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc["status"] == "ready"
            assert doc["model"]["benchmark"] == "stub"
            assert doc["input_shape"] == [2, 2]
            assert doc["n_outputs"] == 3

        with_server(stub_factory(), check)

    def test_metrics_endpoint_exposes_request_counters(self):
        async def check(server):
            await request(server.port, "POST", "/v1/predict", {"images": [[0, 0], [0, 0]]})
            status, headers, body = await request(server.port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            text = body.decode()
            assert '# TYPE repro_http_requests_total counter' in text
            assert 'repro_http_requests_total{endpoint="/v1/predict",code="200"} 1' in text
            assert "repro_batch_size_images_count 1" in text

        with_server(stub_factory(), check)

    def test_refused_heads_are_counted_under_other(self):
        """A head refused before routing counts under ``endpoint="other"``."""
        heads = {
            400: b"THIS IS NOT HTTP\r\n\r\n",
            431: http_payload("GET", "/healthz", headers=[("X-Big", "x" * 70_000)]),
        }

        async def check(server):
            for code, payload in heads.items():
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(payload)
                await writer.drain()
                assert (await read_response(reader))[0] == code
                writer.close()
            _, _, body = await request(server.port, "GET", "/metrics")
            text = body.decode()
            for code in heads:
                assert f'repro_http_requests_total{{endpoint="other",code="{code}"}} 1' in text

        with_server(stub_factory(), check)

    def test_error_statuses(self):
        async def check(server):
            cases = [
                ("GET", "/nope", None, (), 404),
                ("GET", "/v1/predict", None, (), 405),
                ("POST", "/healthz", {"x": 1}, (), 405),
                ("POST", "/v1/predict", {"wrong": []}, (), 400),
                ("POST", "/v1/predict", {"images": [[1, 2, 3]]}, (), 400),
                ("POST", "/v1/predict", {"images": [[0, 0], [0, 0]], "return": "zebra"},
                 (), 400),
                ("POST", "/v1/predict", {"images": [[0, 0], [0, 0]]},
                 (("x-deadline-ms", "soon"),), 400),
                # json.dumps writes a bare NaN literal, which json.loads accepts
                ("POST", "/v1/predict", {"images": [[float("nan"), 0], [0, 0]]}, (), 400),
                # bodies sent as bytes: an int beyond float64, an int literal
                # over Python's 4,300-digit limit, arrays nested 100,000 deep
                ("POST", "/v1/predict", b'{"images": [[1' + b"0" * 400 + b", 0], [0, 0]]}",
                 (), 400),
                ("POST", "/v1/predict", b'{"images": [[' + b"1" * 4400 + b", 0], [0, 0]]}",
                 (), 400),
                ("POST", "/v1/predict", b'{"images": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 (), 400),
            ]
            # a deadline must be a finite number > 0, in the body or the header
            for deadline in ("soon", [1], True, float("nan"), 0, -5):
                body = {"images": [[0, 0], [0, 0]], "deadline_ms": deadline}
                cases.append(("POST", "/v1/predict", body, (), 400))
            for deadline in ("nan", "-1"):
                cases.append(("POST", "/v1/predict", {"images": [[0, 0], [0, 0]]},
                              (("x-deadline-ms", deadline),), 400))
            for method, path, body, headers, expect in cases:
                status, _, _ = await request(server.port, method, path, body, headers)
                assert status == expect, (method, path, repr(body)[:80], headers, status)
            # every case is refused before admission: nothing reached the batcher
            assert server.service.accepted == 0
            # Raw garbage on the wire: 400, connection closed.
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            assert b"400" in await reader.readline()
            writer.close()

        with_server(stub_factory(), check)


class TestOversizedHead:
    """A request head past a limit answers its status, then the server goes on."""

    @pytest.mark.parametrize(
        "payload, expect",
        [
            pytest.param(
                http_payload("GET", "/healthz", headers=[("X-Big", "x" * 70_000)]), 431,
                id="header-line",
            ),
            pytest.param(http_payload("GET", "/" + "p" * 70_000), 414, id="request-line"),
            pytest.param(  # with Host, one line past MAX_HEADER_LINES
                http_payload("GET", "/healthz", headers=[(f"X-H{i}", "1") for i in range(100)]),
                431, id="101-header-lines",
            ),
        ],
    )
    def test_answers_its_status_and_the_next_connection_is_served(
        self, payload, expect, caplog
    ):
        async def check(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(payload)
            await writer.drain()
            status, headers, _ = await read_response(reader)
            assert (status, headers["connection"]) == (expect, "close")
            assert await reader.read() == b""
            writer.close()
            status, _, _ = await request(server.port, "GET", "/healthz")
            assert status == 200

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with_server(stub_factory(), check)
        assert not caplog.records, caplog.text

    def test_a_full_header_block_is_served(self):
        # with Host and Connection, exactly MAX_HEADER_LINES
        headers = [(f"X-H{i}", "1") for i in range(98)]

        async def check(server):
            status, _, _ = await request(server.port, "GET", "/healthz", headers=headers)
            return status

        assert with_server(stub_factory(), check) == 200


class TestOverloadAndDeadlines:
    def test_saturated_queue_answers_429_with_retry_after(self):
        release = threading.Event()

        def gated(xs):
            release.wait(5.0)
            return [np.zeros((x.shape[0], 3)) for x in xs]

        async def check(server):
            image = {"images": [[0, 0], [0, 0]]}
            first = asyncio.ensure_future(
                request(server.port, "POST", "/v1/predict", image)
            )
            second = asyncio.ensure_future(
                request(server.port, "POST", "/v1/predict", image)
            )
            await asyncio.sleep(0.05)  # both admitted; runner gated shut
            status, headers, _ = await request(server.port, "POST", "/v1/predict", image)
            assert status == 429
            assert float(headers["retry-after"]) >= 1.0
            release.set()
            for status, _, _ in await asyncio.gather(first, second):
                assert status == 200

        with_server(stub_factory(gated), check, queue_depth=2, max_wait_ms=1.0)

    def test_expired_deadline_answers_504(self):
        release = threading.Event()

        def gated(xs):
            release.wait(5.0)
            return [np.zeros((x.shape[0], 3)) for x in xs]

        async def check(server):
            status, _, body = await request(
                server.port, "POST", "/v1/predict",
                {"images": [[0, 0], [0, 0]], "deadline_ms": 30},
            )
            assert status == 504
            assert "deadline" in json.loads(body)["error"]
            release.set()

        with_server(stub_factory(gated), check, queue_depth=4)

    def test_engine_failure_answers_500(self):
        def boom(xs):
            raise RuntimeError("shard exploded")

        async def check(server):
            status, _, body = await request(
                server.port, "POST", "/v1/predict", {"images": [[0, 0], [0, 0]]}
            )
            assert status == 500
            assert "shard exploded" in json.loads(body)["error"]

        with_server(stub_factory(boom), check)


class TestCircuitBreaker:
    def test_failed_group_counts_each_request_and_opens_the_circuit(self):
        """Three requests of one failing group are three failures.

        At threshold 3 they open the circuit: each answers 500, and the
        next request is refused at admission with 503 + ``Retry-After``,
        without reaching the engine.
        """
        groups = []

        def boom(xs):
            groups.append(len(xs))
            raise RuntimeError("engine down")

        async def check(server):
            image = {"images": [[0, 0], [0, 0]]}
            answers = await asyncio.gather(*(
                request(server.port, "POST", "/v1/predict", image) for _ in range(3)
            ))
            assert groups == [3]  # one coalesced group
            assert [status for status, _, _ in answers] == [500, 500, 500]
            status, headers, body = await request(server.port, "POST", "/v1/predict", image)
            assert status == 503
            assert int(headers["retry-after"]) >= 1
            assert "circuit open" in json.loads(body)["error"]
            assert groups == [3]
            _, _, body = await request(server.port, "GET", "/healthz")
            assert json.loads(body)["circuit"]["state"] == "open"
            _, _, body = await request(server.port, "GET", "/metrics")
            assert "\nrepro_circuit_opened_total 1\n" in body.decode()

        with_server(stub_factory(boom), check, breaker_threshold=3, max_wait_ms=100.0)


class TestDrain:
    def test_draining_rejects_new_reports_503(self):
        async def check(server):
            await server.service.drain()
            code, body, _, _ = await server._dispatch("GET", "/healthz", {}, b"")
            assert code == 503
            assert json.loads(body)["status"] == "draining"
            code, _, _, _ = await server._dispatch(
                "POST", "/v1/predict", {}, json.dumps({"images": [[0, 0], [0, 0]]}).encode()
            )
            assert code == 503

        with_server(stub_factory(), check)

    def test_graceful_stop_finishes_accepted_request(self):
        def slow(xs):
            time.sleep(0.1)
            return [np.zeros((x.shape[0], 3)) for x in xs]

        async def run():
            server = ServingServer(
                ServerConfig(port=0, max_wait_ms=1.0), engine_factory=stub_factory(slow)
            )
            await server.start()
            inflight = asyncio.ensure_future(
                request(server.port, "POST", "/v1/predict", {"images": [[0, 0], [0, 0]]})
            )
            await asyncio.sleep(0.03)  # request admitted and dispatched
            await server.drain_and_stop()
            status, _, _ = await inflight
            assert status == 200  # accepted work survived the shutdown

        asyncio.run(run())

    def test_port_file_written_on_start(self, tmp_path):
        port_file = tmp_path / "port"

        async def check(server):
            assert int(port_file.read_text()) == server.port

        with_server(stub_factory(), check, port_file=str(port_file))


PREDICT_BODY = json.dumps({"images": [[0, 0], [0, 0]]}).encode()


class TestKeepAlive:
    def test_connection_reused_across_requests(self):
        async def check(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for _ in range(3):
                writer.write(http_payload("POST", "/v1/predict", PREDICT_BODY))
                await writer.drain()
                status, headers, _ = await read_response(reader)
                assert status == 200
                assert headers["connection"] == "keep-alive"
            # the same socket serves /metrics too, and the counters
            # show one connection reused for every request after the first
            writer.write(http_payload("GET", "/metrics"))
            await writer.drain()
            status, _, body = await read_response(reader)
            assert status == 200
            text = body.decode()
            assert "repro_http_connections_total 1" in text
            assert "repro_http_keepalive_reuses_total 3" in text
            writer.close()

        with_server(stub_factory(), check)

    def test_connection_close_honored(self):
        async def check(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                http_payload("POST", "/v1/predict", PREDICT_BODY, connection="close")
            )
            await writer.drain()
            status, headers, _ = await read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert await reader.read() == b""  # server closed its end
            writer.close()

        with_server(stub_factory(), check)

    def test_half_closed_client_still_gets_its_response(self):
        async def check(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(http_payload("POST", "/v1/predict", PREDICT_BODY))
            await writer.drain()
            writer.write_eof()  # client half-closes after sending
            status, _, body = await read_response(reader)
            assert status == 200
            assert json.loads(body)["n"] == 1
            assert await reader.read() == b""
            writer.close()

        with_server(stub_factory(), check)

    def test_pipelined_request_forfeits_the_connection(self):
        async def check(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # two requests in one write: the second is pipelined —
            # buffered before the first response goes out
            writer.write(
                http_payload("POST", "/v1/predict", PREDICT_BODY)
                + http_payload("POST", "/v1/predict", PREDICT_BODY)
            )
            await writer.drain()
            status, headers, _ = await read_response(reader)
            assert status == 200  # the in-flight request is still answered
            assert headers["connection"] == "close"
            assert await reader.read() == b""  # the pipelined one never is
            writer.close()
            assert server.metrics.pipelined_rejected_total.value() == 1.0

        with_server(stub_factory(), check)


def _f64(value) -> bytes:
    """One little-endian float64, as packed in a raw request body."""
    return np.array([value], dtype="<f8").tobytes()


RAW = (("Content-Type", RAW_CONTENT_TYPE),)


async def _post_raw(port, x, headers=()):
    status, _, body = await request(
        port, "POST", "/v1/predict", pack_raw_request(x), RAW + headers
    )
    return status, json.loads(body)


class TestRawDecode:
    def test_raw_body_byte_identical_logits_to_json_path(self, net, images):
        async def check(server):
            status, _, json_body = await request(
                server.port, "POST", "/v1/predict",
                {"images": images.tolist(), "return": "logits"},
            )
            assert status == 200
            raw_status, _, raw_body = await request(
                server.port, "POST", "/v1/predict", pack_raw_request(images),
                RAW + (("x-return", "logits"),),
            )
            assert raw_status == 200
            # byte-identical response bodies: same floats, same JSON
            assert raw_body == json_body

        with_server(real_factory(net), check, shard_batch=SHARD)

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda b: b[:-3], id="truncated-payload"),
            pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
            pytest.param(lambda b: b[:6], id="short-header"),
            pytest.param(lambda b: b + b"extra", id="trailing-garbage"),
            pytest.param(
                lambda b: b[:4] + (2**31).to_bytes(4, "little") + b[8:],
                id="huge-count",
            ),
            pytest.param(
                lambda b: b[:4] + (0).to_bytes(4, "little") + b[8:],
                id="zero-count",
            ),
            pytest.param(lambda b: b[:8] + _f64(np.nan) + b[16:], id="nan-pixel"),
            pytest.param(lambda b: b[:-8] + _f64(np.inf), id="inf-pixel"),
            pytest.param(lambda b: b[:16] + _f64(-np.inf) + b[24:], id="neg-inf-pixel"),
        ],
    )
    def test_malformed_raw_body_is_400_not_500(self, mangle):
        async def check(server):
            good = pack_raw_request(np.zeros((1, 2, 2)))
            status, _, body = await request(
                server.port, "POST", "/v1/predict", mangle(good), RAW
            )
            assert status == 400
            assert "error" in json.loads(body)

        with_server(stub_factory(), check)

    def test_decode_format_counters(self):
        async def check(server):
            await request(server.port, "POST", "/v1/predict", {"images": [[0, 0], [0, 0]]})
            status, _ = await _post_raw(server.port, np.zeros((1, 2, 2)))
            assert status == 200
            assert server.metrics.decode_total.value("json") == 1.0
            assert server.metrics.decode_total.value("raw") == 1.0

        with_server(stub_factory(), check)


class TestNonFiniteInput:
    def test_nan_requests_never_trip_the_breaker(self, net, images):
        """Three NaN requests against threshold 3: the circuit stays closed."""
        async def check(server):
            poison = images[:2].copy()
            poison[1, 0, 5, 5] = np.nan
            for _ in range(3):
                status, doc = await _post_raw(server.port, poison)
                assert status == 400, doc
            _, _, body = await request(server.port, "GET", "/healthz")
            assert json.loads(body)["circuit"]["state"] == "closed"
            status, doc = await _post_raw(server.port, images[:2])
            assert status == 200
            assert doc["classes"] == net.predict(images[:2], batch=SHARD).tolist()

        with_server(real_factory(net), check, shard_batch=SHARD, breaker_threshold=3)

    def test_huge_finite_pixel_still_answers(self, net, images):
        """1e300 is finite: decode admits it and the engine saturates it."""
        async def check(server):
            big = images[:1].copy()
            big[0, 0, 3, 3] = 1e300
            status, doc = await _post_raw(server.port, big)
            assert status == 200
            assert doc["classes"] == net.predict(big, batch=SHARD).tolist()

        with_server(real_factory(net), check, shard_batch=SHARD)

    def test_overflowing_finite_pixel_saturates(self, images):
        """A finite pixel that overflows when scaled answers like the rail.

        Calibration never picks a scale below 1, so conv1's ``x_scale``
        is forged to 0.5: ``1.7e308 / 0.5`` overflows float64.  Decode
        admits the pixel (it is finite), and the layer-input quantizer
        saturates it, as it saturates 2.0, instead of failing dispatch.
        """
        net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
        attach_engines(net, "proposed-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=8)
        net.conv_layers[0].engine.x_scale = 0.5

        async def check(server):
            huge, rail = images[:1].copy(), images[:1].copy()
            huge[0, 0, 3, 3] = 1.7e308
            rail[0, 0, 3, 3] = 2.0
            both = (("x-return", "both"),)
            status, doc = await _post_raw(server.port, huge, both)
            assert status == 200, doc
            assert doc == (await _post_raw(server.port, rail, both))[1]

        with_server(real_factory(net), check, shard_batch=SHARD)


class TestBuildEngine:
    @pytest.fixture(autouse=True)
    def _no_artifact_leaks(self):
        """The process-wide artifact ``build_engine`` attaches stays here."""
        from repro.parallel.cache import detach_compiled, reset_worker_cache

        detach_compiled()
        reset_worker_cache()
        yield
        detach_compiled()
        reset_worker_cache()

    def test_default_generator_is_each_engine_own(self, images):
        """``--generator`` reaches the conv engines at construction.

        An untagged group runs under the engines' own family, and a
        ``None`` entry of a tagged group too: both answer as an
        independently built net under ``generator="mip"``, from the
        ``mip`` artifact, with no schedule built on the way.
        """
        from repro.experiments.common import DIGITS_QUICK_SPEC, get_trained_model
        from repro.parallel import predict_logits
        from repro.parallel.cache import get_worker_cache
        from repro.serve import build_engine

        engine, _, meta = build_engine(
            ServerConfig(engine="lfsr-sc", n_bits=5, generator="mip", workers=0)
        )
        assert meta["schedule_artifact"]["key"] == "sched-digits-quick-lfsr-sc-n5-gmip"
        assert [c.engine.generator for c in engine.net.conv_layers] == ["mip", "mip"]
        a, b = images[:2], images[2:]
        untagged = engine.logits_grouped([a, b])
        assert get_worker_cache().stats()["rebuilds"] == 0
        tagged = engine.logits_grouped([a, b], generator=["halton", None])

        model = get_trained_model(DIGITS_QUICK_SPEC)
        attach_engines(model.net, "lfsr-sc", model.ranges, n_bits=5)
        mip = ParallelConfig(batch_size=16, generator="mip")
        halton = ParallelConfig(batch_size=16, generator="halton")
        assert np.array_equal(untagged[0], predict_logits(model.net, a, mip))
        assert np.array_equal(untagged[1], predict_logits(model.net, b, mip))
        assert np.array_equal(tagged[0], predict_logits(model.net, a, halton))
        assert np.array_equal(tagged[1], untagged[1])


class TestServeConfigNarrowing:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ServerConfig(workers=-1)
