"""Stdlib asyncio HTTP/1.1 front end for the SC-CNN inference service.

Endpoints:

* ``POST /v1/predict`` — JSON ``{"images": [...], "deadline_ms"?,
  "return"?: "classes"|"logits"|"both", "generator"?}``; images are one
  image or a batch shaped like the model input.  ``generator`` (or the
  ``x-generator`` header on the raw path) names an SNG registry family
  (see ``repro generators``) the conventional-SC engines draw from for
  this request; an unknown key answers 400 at admission.  Answers 200 with classes (and
  logits on request), 400 on malformed input, 429 + ``Retry-After``
  under backpressure, 503 while draining, 504 past deadline.
  Alternatively ``Content-Type: application/x-repro-float64`` selects
  the zero-copy decode path: an 8-byte header (``b"RPF8"`` magic +
  u32-LE image count) followed by the images as little-endian float64
  in C order; the body bytes back the numpy view directly, no JSON
  round-trip.  Return mode and deadline then come from the
  ``x-return`` / ``x-deadline-ms`` headers.
* ``GET /healthz`` — readiness: 200 once the engine is warm and the
  batcher is running, 503 while starting or draining.  The body
  carries the model metadata (input shape, logit width) a load
  generator needs to synthesize traffic.
* ``GET /metrics`` — Prometheus text exposition (format 0.0.4) of the
  :class:`~repro.serve.metrics.ServiceMetrics` families.

Shutdown: SIGTERM/SIGINT (or :meth:`ServingServer.request_shutdown`)
stops the listener, lets the admission layer drain every accepted
request, finishes in-flight responses, then closes idle keep-alive
connections — no accepted request is dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import signal
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.parallel.engine import available_cpus
from repro.serve.metrics import ServiceMetrics
from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.pool import EnginePool
from repro.serve.service import (
    CircuitOpenError,
    DeadlineExceededError,
    InferenceService,
    QueueFullError,
    ShuttingDownError,
)

__all__ = [
    "ServerConfig",
    "ServingServer",
    "build_engine",
    "run_server",
    "get_active_server",
    "RAW_CONTENT_TYPE",
    "RAW_MAGIC",
    "pack_raw_request",
]

#: Hard cap on request bodies (a 64-image CIFAR batch is ~6 MB of JSON).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Most header lines one request may carry; one more answers 431.  Each
#: line is bounded too, by the stream's 64 KiB line limit.
MAX_HEADER_LINES = 100

#: Content type selecting the zero-copy raw-float request decode path.
RAW_CONTENT_TYPE = "application/x-repro-float64"

#: Leading magic of a raw-float body; the u32-LE image count follows,
#: making an 8-byte header that keeps the float64 payload aligned.
RAW_MAGIC = b"RPF8"

#: Benchmark dataset -> model input shape (NCHW minus the batch axis).
INPUT_SHAPES = {"digits": (1, 28, 28), "shapes": (3, 32, 32)}

#: Endpoints whose label is exported verbatim; everything else becomes
#: "other" to keep /metrics label cardinality bounded.
_KNOWN_ENDPOINTS = ("/v1/predict", "/healthz", "/metrics")


@dataclass
class ServerConfig:
    """Every knob of one serving process (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: shard threads per engine call (0 or 1 = inline); by default one
    #: per CPU this process may run on
    workers: int = field(default_factory=available_cpus)
    max_batch: int = 32
    max_wait_ms: float = 5.0
    queue_depth: int = 64
    default_deadline_ms: float | None = None
    benchmark: str = "digits"
    engine: str = "proposed-sc"
    n_bits: int = 8
    shard_batch: int = 16
    port_file: str | None = None
    #: consecutive failed requests before the circuit opens (0 = no breaker)
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 5.0
    #: default SNG generator family of the conv engines (a
    #: :mod:`repro.sc.generators` registry key; None = engine default).
    #: Requests may override per call with the ``generator`` field.
    generator: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


class _HttpError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def pack_raw_request(x) -> bytes:
    """Encode an image batch as a raw-float predict body.

    Client-side counterpart of the server's zero-copy decode: magic,
    u32-LE image count, then the batch as little-endian float64 in C
    order.
    """
    x = np.ascontiguousarray(np.asarray(x), dtype="<f8")
    return RAW_MAGIC + struct.pack("<I", x.shape[0]) + x.tobytes()


def build_engine(config: ServerConfig):
    """Trained benchmark model wrapped in a :class:`BatchInferenceEngine`.

    Returns ``(engine, input_shape, meta)``.  Loads (or trains) the
    quick benchmark checkpoint through the artifact store, attaches the
    requested conv arithmetic under the default SNG family — the same
    workload path as ``repro infer`` — then compiles (or loads) the
    schedule artifact and attaches it, so the engines serve schedules
    from the read-only artifact instead of building them on the first
    requests.
    """
    from repro.experiments.common import (
        DIGITS_QUICK_SPEC,
        SHAPES_QUICK_SPEC,
        get_store,
        get_trained_model,
    )
    from repro.nn import attach_engines
    from repro.parallel import (
        BatchInferenceEngine,
        ParallelConfig,
        attach_compiled,
        ensure_compiled,
        schedule_artifact_key,
    )

    spec = {"digits": DIGITS_QUICK_SPEC, "shapes": SHAPES_QUICK_SPEC}[config.benchmark]
    model = get_trained_model(spec)
    attach_engines(
        model.net, config.engine, model.ranges, n_bits=config.n_bits,
        generator=config.generator,
    )
    key = schedule_artifact_key(spec.name, config.engine, config.n_bits, config.generator)
    compiled = ensure_compiled(model.net, get_store(), key)
    attach_compiled(compiled)
    engine = BatchInferenceEngine(
        model.net, ParallelConfig(workers=config.workers, batch_size=config.shard_batch)
    )
    meta = {
        "benchmark": spec.name,
        "dataset": spec.dataset,
        "engine": config.engine,
        "n_bits": config.n_bits,
        "workers": config.workers,
        "generator": config.generator or "lfsr",
        "shard_batch": config.shard_batch,
        "schedule_artifact": {"key": key, "entries": len(compiled), "bytes": compiled.nbytes},
    }
    return engine, INPUT_SHAPES[spec.dataset], meta


class ServingServer:
    """One serving process: engine + batcher + service + HTTP listener."""

    def __init__(self, config: ServerConfig, engine_factory=None) -> None:
        self.config = config
        self.engine_factory = engine_factory or build_engine
        self.metrics = ServiceMetrics()
        self.engine = None
        self.batcher: MicroBatcher | None = None
        self.service: InferenceService | None = None
        self.input_shape: tuple[int, ...] | None = None
        self.n_outputs: int | None = None
        self.model_meta: dict = {}
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Build + warm the engine, start the batcher and listener."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        engine, input_shape, meta = await loop.run_in_executor(
            None, self.engine_factory, self.config
        )
        engine.add_hook(self.metrics.engine_hook)
        from repro.parallel.cache import get_worker_cache

        self.metrics.attach_schedule_cache(get_worker_cache())
        # Readiness requires a warm engine: one dummy image primes the
        # schedule caches and yields the logit width.
        dummy = np.zeros((1, *input_shape), dtype=np.float64)
        warm = await loop.run_in_executor(None, engine.logits, dummy)
        self.engine = engine
        self.input_shape = tuple(input_shape)
        self.n_outputs = int(warm.shape[1])
        self.model_meta = dict(meta)
        from repro.sc.generators import generator_keys

        self.model_meta["generators"] = generator_keys()
        self.metrics.attach_generators(generator_keys())
        self.batcher = MicroBatcher(
            EnginePool(engine).run_grouped,
            max_batch_size=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            metrics=self.metrics,
        )
        breaker = None
        if self.config.breaker_threshold > 0:
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
        self.service = InferenceService(
            self.batcher,
            queue_depth=self.config.queue_depth,
            default_deadline_ms=self.config.default_deadline_ms,
            metrics=self.metrics,
            breaker=breaker,
        )
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(f"{self.port}\n")

    async def drain_and_stop(self) -> None:
        """Graceful stop: close the listener, flush accepted work, close."""
        if self._server is not None:
            self._server.close()
        if self.service is not None:
            await self.service.drain()
        # Let handlers that already hold results finish writing them.
        deadline = asyncio.get_running_loop().time() + 10.0
        while self._active_requests and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            self._server = None

    def request_shutdown(self) -> None:
        """Trigger graceful drain; safe to call from any thread."""
        if self._shutdown is None or self._loop is None:
            return
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            self._shutdown.set()
        else:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def serve_forever(self) -> None:
        """Block until a shutdown signal, then drain and stop."""
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await self._shutdown.wait()
        finally:
            for sig in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(sig)
        await self.drain_and_stop()

    # -- connection handling ----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self.metrics.connections_total.inc()
        served = 0
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    # a refused head never reached routing
                    self.metrics.requests_total.inc(1.0, "other", str(exc.code))
                    await _write_response(
                        writer, exc.code, _json_body({"error": str(exc)}), keep_alive=False
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                method, path, headers, body = request
                served += 1
                if served > 1:
                    self.metrics.keepalive_reuses_total.inc()
                self._active_requests += 1
                try:
                    code, payload, ctype, extra = await self._dispatch(
                        method, path, headers, body
                    )
                finally:
                    self._active_requests -= 1
                endpoint = path if path in _KNOWN_ENDPOINTS else "other"
                self.metrics.requests_total.inc(1.0, endpoint, str(code))
                keep_alive = headers.get("connection", "").lower() != "close"
                # Pipelining is rejected: a client that sent its next
                # request before this response forfeits the connection.
                # The in-flight response is still written (with
                # ``Connection: close``), the buffered request is never
                # read — the client must retry it on a new connection.
                if keep_alive and _has_buffered_request(reader):
                    self.metrics.pipelined_rejected_total.inc()
                    keep_alive = False
                await _write_response(
                    writer, code, payload, content_type=ctype,
                    keep_alive=keep_alive, extra_headers=extra,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, method, path, headers, body):
        """Route one request; returns ``(code, body, content_type, headers)``."""
        if path == "/healthz":
            if method != "GET":
                return 405, _json_body({"error": "use GET"}), "application/json", {}
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, _json_body({"error": "use GET"}), "application/json", {}
            text = self.metrics.render().encode()
            return 200, text, "text/plain; version=0.0.4; charset=utf-8", {}
        if path == "/v1/predict":
            if method != "POST":
                return 405, _json_body({"error": "use POST"}), "application/json", {}
            return await self._predict(headers, body)
        return 404, _json_body({"error": f"no route for {path}"}), "application/json", {}

    def _healthz(self):
        ready = self.service is not None and self.service.ready
        status = {
            True: "ready",
            False: "draining" if (self.service and self.service.draining) else "starting",
        }[ready]
        doc = {
            "status": status,
            "model": self.model_meta,
            "input_shape": list(self.input_shape or ()),
            "n_outputs": self.n_outputs,
            "inflight": self.service.inflight if self.service else 0,
            "accepted": self.service.accepted if self.service else 0,
        }
        breaker = self.service.breaker if self.service else None
        if breaker is not None:
            doc["circuit"] = breaker.describe()
        return (200 if ready else 503), _json_body(doc), "application/json", {}

    def _decode_raw(self, headers, body):
        """Zero-copy decode of a raw-float body; raises :class:`_HttpError`.

        The returned array is a read-only view over the request body
        bytes — no parse, no copy; grouping/sharding downstream reads
        it directly.
        """
        if len(body) < 8 or body[:4] != RAW_MAGIC:
            raise _HttpError(400, "raw body must start with RPF8 magic + u32 count")
        (n,) = struct.unpack_from("<I", body, 4)
        per_image = int(np.prod(self.input_shape)) * 8
        expected = 8 + n * per_image
        if n < 1:
            raise _HttpError(400, "raw image count must be >= 1")
        if len(body) != expected:
            raise _HttpError(
                400,
                f"raw body length {len(body)} does not match count {n} "
                f"(expected {expected} bytes for input shape {self.input_shape})",
            )
        return np.frombuffer(body, dtype="<f8", offset=8).reshape(n, *self.input_shape)

    async def _predict(self, headers, body):
        ctype = headers.get("content-type", "").partition(";")[0].strip().lower()
        doc: dict = {}
        if ctype == RAW_CONTENT_TYPE:
            try:
                x = self._decode_raw(headers, body)
            except _HttpError as exc:
                return exc.code, _json_body({"error": str(exc)}), \
                    "application/json", {}
            fmt = "raw"
        else:
            # ValueError: bad UTF-8, bad JSON, or an int literal over
            # Python's digit limit; RecursionError: nesting too deep.
            try:
                doc = json.loads(body.decode() or "{}")
            except (ValueError, RecursionError) as exc:
                return 400, _json_body({"error": f"bad JSON: {exc}"}), \
                    "application/json", {}
            if not isinstance(doc, dict) or "images" not in doc:
                return 400, _json_body({"error": 'body must be {"images": [...]}'}), \
                    "application/json", {}
            try:
                x = np.asarray(doc["images"], dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:  # int beyond float64
                return 400, _json_body({"error": f"bad images: {exc}"}), \
                    "application/json", {}
            if x.shape == self.input_shape:
                x = x[None]
            if x.ndim != 1 + len(self.input_shape) or x.shape[1:] != self.input_shape:
                return 400, _json_body({
                    "error": f"images must be shaped {self.input_shape} "
                    f"or (n, {', '.join(map(str, self.input_shape))}), got {x.shape}"
                }), "application/json", {}
            fmt = "json"
        # A NaN/Inf pixel is a client error: refuse it here, before
        # admission, so it can never fail a coalesced group or count
        # as an engine failure on the breaker.
        if not np.isfinite(x).all():
            return 400, _json_body({"error": "images must be finite (NaN or Inf pixel)"}), \
                "application/json", {}
        self.metrics.decode_total.inc(1.0, fmt)
        try:
            deadline = _decode_deadline(doc, headers)
        except _HttpError as exc:
            return exc.code, _json_body({"error": str(exc)}), "application/json", {}
        want = doc.get("return", headers.get("x-return", "classes"))
        if want not in ("classes", "logits", "both"):
            return 400, _json_body({"error": f"unknown return mode {want!r}"}), \
                "application/json", {}
        generator = doc.get("generator", headers.get("x-generator")) or None
        if generator is not None:
            # Admission-time validation: an unknown family answers 400
            # before the request ever reaches the batcher, so it can
            # never fail a coalesced group or trip the breaker.
            from repro.sc.generators import resolve_generator

            try:
                resolve_generator(str(generator))
            except ValueError as exc:
                return 400, _json_body({"error": str(exc)}), "application/json", {}
            generator = str(generator)
        try:
            logits = await self.service.predict(x, deadline, generator=generator)
        except QueueFullError as exc:
            return 429, _json_body({"error": str(exc)}), "application/json", {
                "Retry-After": str(int(-(-exc.retry_after_s // 1)))
            }
        except DeadlineExceededError as exc:
            return 504, _json_body({"error": str(exc)}), "application/json", {}
        except CircuitOpenError as exc:
            return 503, _json_body({"error": str(exc)}), "application/json", {
                "Retry-After": str(max(1, int(-(-exc.retry_after_s // 1))))
            }
        except ShuttingDownError as exc:
            return 503, _json_body({"error": str(exc)}), "application/json", {}
        except Exception as exc:  # engine failure: answer, don't hang
            return 500, _json_body({"error": f"inference failed: {exc}"}), \
                "application/json", {}
        out: dict = {"n": int(logits.shape[0])}
        if want in ("classes", "both"):
            out["classes"] = logits.argmax(axis=1).tolist()
        if want in ("logits", "both"):
            out["logits"] = logits.tolist()
        return 200, _json_body(out), "application/json", {}


# -- wire helpers ----------------------------------------------------------

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 414: "URI Too Long", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _json_body(doc: dict) -> bytes:
    return (json.dumps(doc) + "\n").encode()


def _decode_deadline(doc: dict, headers: dict) -> float | None:
    """The request's deadline in ms (body field, else header), or ``None``.

    Checked here, before admission: a value that is not a finite number
    > 0 (a bool, a string, NaN, zero, negative) answers 400 instead of
    failing inside the service after the batcher has taken the request.
    """
    value = doc.get("deadline_ms")
    if value is None and "x-deadline-ms" in headers:
        try:
            value = float(headers["x-deadline-ms"])
        except ValueError:
            raise _HttpError(400, "bad x-deadline-ms header") from None
    if value is None:
        return None
    ms = math.nan  # anything but a real number is refused below
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            ms = float(value)
    if not 0 < ms < math.inf:
        raise _HttpError(400, f"deadline_ms must be a finite number > 0, got {value!r}")
    return ms


def _has_buffered_request(reader: asyncio.StreamReader) -> bool:
    """Bytes already received past the request we just answered?

    Peeks :class:`asyncio.StreamReader`'s internal buffer (no public
    peek exists); guarded so an implementation without ``_buffer``
    simply never detects pipelining rather than crashing.
    """
    return bool(getattr(reader, "_buffer", None))


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; ``None`` at EOF; :class:`_HttpError` on garbage.

    ``readline`` raises ``ValueError`` for a line past the stream's
    limit: that answers 414 for the request line and 431 for a header
    line, as do more than :data:`MAX_HEADER_LINES` header lines.
    """
    try:
        line = await reader.readline()
    except ValueError:
        raise _HttpError(414, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for n_lines in itertools.count(1):
        try:
            raw = await reader.readline()
        except ValueError:
            raise _HttpError(431, "header line too long") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _HttpError(400, "truncated headers")
        if n_lines > MAX_HEADER_LINES:
            raise _HttpError(431, f"more than {MAX_HEADER_LINES} header lines")
        key, sep, value = raw.decode("latin1").partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header {raw!r}")
        headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    code: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict | None = None,
) -> None:
    head = [
        f"HTTP/1.1 {code} {_STATUS_TEXT.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for key, value in (extra_headers or {}).items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


# -- process entry point ---------------------------------------------------

_ACTIVE_SERVER: ServingServer | None = None


def get_active_server() -> ServingServer | None:
    """The server currently run by :func:`run_server` (tests, tooling)."""
    return _ACTIVE_SERVER


def run_server(config: ServerConfig, engine_factory=None) -> int:
    """Boot a server, block until SIGTERM/SIGINT, drain, exit 0."""

    async def _amain() -> int:
        global _ACTIVE_SERVER
        server = ServingServer(config, engine_factory=engine_factory)
        _ACTIVE_SERVER = server
        try:
            await server.start()
            print(
                f"serving {server.model_meta.get('benchmark', '?')} on "
                f"{config.host}:{server.port} "
                f"(workers={config.workers}, "
                f"max_batch={config.max_batch}, "
                f"max_wait_ms={config.max_wait_ms:g}, queue_depth={config.queue_depth})",
                file=sys.stderr,
                flush=True,
            )
            await server.serve_forever()
            print(
                f"drained: {server.service.accepted} requests served, "
                "0 dropped",
                file=sys.stderr,
                flush=True,
            )
        finally:
            _ACTIVE_SERVER = None
        return 0

    return asyncio.run(_amain())
