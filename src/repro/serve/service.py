"""Admission control around the micro-batcher: backpressure, deadlines, drain.

The service is the policy layer between the HTTP front end and the
batcher.  It enforces four rules:

* **backpressure** — at most ``queue_depth`` requests may be in flight;
  request number ``queue_depth + 1`` is refused with
  :class:`QueueFullError` (HTTP 429 + ``Retry-After``) instead of
  growing an unbounded queue;
* **deadlines** — a request carries a deadline (its own, or the
  configured default); expiry raises :class:`DeadlineExceededError`
  (HTTP 504).  An expired request that is still queued is skipped by
  the batcher, so it costs no engine work;
* **drain** — :meth:`drain` stops admission (new requests get
  :class:`ShuttingDownError`, HTTP 503) and then flushes every
  *accepted* request through the batcher before returning, so a
  SIGTERM never drops admitted work;
* **circuit breaking** — consecutive failed requests trip an optional
  :class:`~repro.serve.breaker.CircuitBreaker`; while open, requests
  are refused up front with :class:`CircuitOpenError` (HTTP 503 +
  ``Retry-After``) and a single half-open probe request per cooldown
  tests whether the engine recovered.  The breaker counts requests,
  not engine calls: a failed group of three coalesced requests is
  three failures.

Admission check and enqueue happen without an intervening ``await``,
so on a single event loop an admitted request is always enqueued
before a concurrently-started drain pushes its sentinel.
"""

from __future__ import annotations

import asyncio

from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import ServiceMetrics

__all__ = [
    "ServiceError",
    "QueueFullError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "CircuitOpenError",
    "InferenceService",
]


class ServiceError(Exception):
    """Base of all admission-layer refusals."""


class QueueFullError(ServiceError):
    """Admission queue at capacity; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        super().__init__(f"admission queue full ({depth} in flight)")
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServiceError):
    """The request's deadline expired before a result was ready."""


class ShuttingDownError(ServiceError):
    """The service is draining and no longer accepts requests."""


class CircuitOpenError(ServiceError):
    """The engine circuit is open; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"engine circuit open; retry in {max(retry_after_s, 0.0):.1f}s"
        )
        self.retry_after_s = max(retry_after_s, 0.0)


class InferenceService:
    """Bounded-admission wrapper over one :class:`MicroBatcher`.

    ``breaker``, when given, is the server's one circuit breaker: every
    request that fails records one failure on it, so a failed group
    records one per request it held.
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        queue_depth: int = 64,
        default_deadline_ms: float | None = None,
        metrics: ServiceMetrics | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.batcher = batcher
        self.queue_depth = queue_depth
        self.default_deadline_ms = default_deadline_ms
        self.breaker = breaker
        self.metrics = metrics or batcher.metrics
        if breaker is not None:
            self.metrics.attach_breaker(breaker)
        self.inflight = 0
        self.accepted = 0
        self._draining = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        await self.batcher.start()
        self.metrics.ready.set(1)

    @property
    def ready(self) -> bool:
        return self.batcher.is_running and not self._draining

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Refuse new work, flush all accepted requests, stop the batcher."""
        self._draining = True
        self.metrics.ready.set(0)
        await self.batcher.drain()

    # -- the request path --------------------------------------------------
    @property
    def retry_after_s(self) -> float:
        """Advisory backoff: roughly one full queue turn of batching."""
        turns = max(1, self.queue_depth) * self.batcher.max_wait_ms / 1000.0
        return max(1.0, round(turns, 1))

    async def predict(
        self, x, deadline_ms: float | None = None, generator: str | None = None
    ):
        """One request through admission, batching, and the engine.

        Returns the request's own result (per-request logits array).
        Raises one of the :class:`ServiceError` subclasses on refusal.
        ``generator`` overrides the SNG family for this one request (a
        :mod:`repro.sc.generators` registry key, validated upstream at
        admission); ``None`` keeps the engine's configured family.
        """
        m = self.metrics
        if self._draining or not self.batcher.is_running:
            m.rejected_total.inc(1.0, "shutdown")
            raise ShuttingDownError("service is draining")
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            m.rejected_total.inc(1.0, "circuit")
            raise CircuitOpenError(breaker.retry_after_s)
        if self.inflight >= self.queue_depth:
            # release a probe slot the allow() above may have claimed
            if breaker is not None:
                breaker.record_inconclusive()
            m.rejected_total.inc(1.0, "backpressure")
            raise QueueFullError(self.inflight, self.retry_after_s)
        m.queue_depth.observe(self.inflight)
        # No await between the check above and the enqueue below: the
        # admitted request is in the batcher before a drain can start.
        future = self.batcher.submit(x, tag=generator)
        self.inflight += 1
        self.accepted += 1
        m.inflight.inc()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        try:
            if deadline_ms is None:
                result = await future
            else:
                try:
                    result = await asyncio.wait_for(future, deadline_ms / 1000.0)
                except (asyncio.TimeoutError, TimeoutError):
                    # a client-budget expiry says nothing about engine
                    # health — release the probe slot, don't trip
                    if breaker is not None:
                        breaker.record_inconclusive()
                    m.rejected_total.inc(1.0, "deadline")
                    raise DeadlineExceededError(
                        f"deadline of {deadline_ms:g} ms expired"
                    ) from None
        except ServiceError:
            raise
        except Exception:
            if breaker is not None:
                opened_before = breaker.opened_total
                breaker.record_failure()
                if breaker.opened_total != opened_before:
                    m.circuit_opened_total.inc()
            raise
        finally:
            self.inflight -= 1
            m.inflight.dec()
        if breaker is not None:
            breaker.record_success()
        m.request_latency.observe(loop.time() - t0)
        return result
