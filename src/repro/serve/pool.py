"""Engine-replica pool: least-loaded dispatch over N independent engines.

One :class:`~repro.parallel.engine.BatchInferenceEngine` saturates well
below what the admission layer can accept (BENCH_PR4: ~39 rps flat
regardless of offered load), because every coalesced group serializes
behind a single engine.  The pool stands up N engines — each with its
own network copy, all sharing the process-global compiled-schedule
artifact, schedule cache and shard threads — and routes each group to
the least-loaded healthy replica:

* **least-loaded dispatch** — the replica with the fewest in-flight
  groups wins; ties break deterministically on the lowest replica
  index, so a single-replica pool is exactly the old single-engine
  path.
* **per-replica circuit breakers** — each replica carries its own
  :class:`~repro.serve.breaker.CircuitBreaker`.  A replica whose
  breaker is open is simply not a dispatch candidate, so one sick
  replica cannot black-hole the others; its half-open probe is claimed
  only when the pool actually picks it.
* **failover** — if a dispatch raises, the failure is recorded on that
  replica's breaker and the group is retried once on each remaining
  healthy replica before the error propagates.  Requests in flight
  when a replica dies are therefore still answered (bit-exactly — the
  retried group is the same request-boundary-aligned group).

The pool's :attr:`circuit` facade presents the per-replica breakers to
:class:`~repro.serve.service.InferenceService` as one breaker-shaped
object: ``allow()`` refuses only when *every* replica is open (the
pool does the real per-replica bookkeeping at dispatch time, so the
facade's record methods are no-ops).

Thread-safety: ``run_grouped`` is called concurrently from the
micro-batcher's executor threads (one per replica); replica selection
and breaker bookkeeping run under one lock, engine execution outside
it.
"""

from __future__ import annotations

import threading

from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import CircuitOpenError

__all__ = ["EnginePool", "EngineReplica", "PoolCircuit"]


class EngineReplica:
    """One pool member: an engine, its breaker, and its load counters."""

    __slots__ = ("index", "name", "engine", "breaker", "inflight", "dispatches")

    def __init__(self, index: int, engine, breaker: CircuitBreaker | None) -> None:
        self.index = index
        self.name = f"r{index}"
        self.engine = engine
        self.breaker = breaker
        self.inflight = 0
        self.dispatches = 0

    def describe(self) -> dict:
        doc = {
            "replica": self.name,
            "dispatches": self.dispatches,
            "inflight": self.inflight,
        }
        config = getattr(self.engine, "config", None)
        if config is not None:
            doc["workers"] = int(getattr(config, "workers", 0))
        if self.breaker is not None:
            doc["circuit"] = self.breaker.describe()
        return doc


class PoolCircuit:
    """Breaker-shaped view of a pool for the admission layer.

    The service's breaker protocol (``allow``/``record_*``/``state``/
    ``describe``) maps onto the pool like this: admission is refused
    only when no replica can take traffic; success/failure bookkeeping
    is a no-op here because :meth:`EnginePool.run_grouped` records the
    outcome on the replica that actually served the group.
    """

    def __init__(self, pool: "EnginePool") -> None:
        self._pool = pool

    @property
    def state(self) -> str:
        """The healthiest replica's state (what admission keys off)."""
        states = [
            r.breaker.state if r.breaker is not None else CircuitBreaker.CLOSED
            for r in self._pool.replicas
        ]
        for state in (CircuitBreaker.CLOSED, CircuitBreaker.HALF_OPEN):
            if state in states:
                return state
        return CircuitBreaker.OPEN

    @property
    def retry_after_s(self) -> float:
        breakers = [r.breaker for r in self._pool.replicas if r.breaker is not None]
        if not breakers:
            return 0.0
        return min(b.retry_after_s for b in breakers)

    @property
    def opened_total(self) -> int:
        return sum(
            r.breaker.opened_total
            for r in self._pool.replicas
            if r.breaker is not None
        )

    def allow(self) -> bool:
        """Admit unless every replica's circuit is fully open.

        Does not claim half-open probe slots — the pool claims one at
        dispatch time only for the replica it actually picks.
        """
        return self.state != CircuitBreaker.OPEN

    def record_success(self) -> None:
        pass  # the pool recorded it on the serving replica

    def record_failure(self) -> None:
        pass  # the pool recorded it on the failing replica

    def record_inconclusive(self) -> None:
        pass  # allow() holds no probe slot, nothing to release

    def describe(self) -> dict:
        return {
            "state": self.state,
            "opened_total": self.opened_total,
            "retry_after_s": round(self.retry_after_s, 3),
            "replicas": [r.describe() for r in self._pool.replicas],
        }


class EnginePool:
    """N engine replicas behind least-loaded dispatch with failover."""

    def __init__(
        self,
        engines,
        breaker_factory=None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        engines = list(engines)
        if not engines:
            raise ValueError("EnginePool needs at least one engine")
        self.replicas = [
            EngineReplica(i, e, breaker_factory() if breaker_factory else None)
            for i, e in enumerate(engines)
        ]
        if len(self.replicas) > 1:
            # Named engines scope their fault-site keys per replica
            # (e.g. "grouped@r1"), letting chaos schedules kill exactly
            # one.  A single-replica pool keeps the bare keys so it is
            # indistinguishable from the old single-engine path.
            for replica in self.replicas:
                if getattr(replica.engine, "name", None) is None:
                    try:
                        replica.engine.name = replica.name
                    except AttributeError:
                        pass  # exotic engine stubs without settable attrs
        self.metrics = metrics
        self.circuit = PoolCircuit(self) if breaker_factory else None
        self._lock = threading.Lock()
        if metrics is not None:
            for replica in self.replicas:
                metrics.attach_replica(replica.name, replica.breaker)

    @property
    def size(self) -> int:
        return len(self.replicas)

    def describe(self) -> list[dict]:
        """Per-replica load/circuit document for ``/healthz``."""
        with self._lock:
            return [r.describe() for r in self.replicas]

    def dispatch_counts(self) -> dict[str, int]:
        with self._lock:
            return {r.name: r.dispatches for r in self.replicas}

    # -- dispatch ----------------------------------------------------------
    def _acquire(self, exclude: set[int]) -> EngineReplica:
        """Pick and claim the least-loaded healthy replica.

        Closed (or breakerless) replicas are preferred; only if none is
        available does an open replica whose cooldown elapsed get its
        half-open probe claimed.  Raises :class:`CircuitOpenError` when
        nothing may serve.
        """
        with self._lock:
            candidates = sorted(
                (r for r in self.replicas if r.index not in exclude),
                key=lambda r: (r.inflight, r.index),
            )
            chosen = None
            for replica in candidates:
                b = replica.breaker
                if b is None or b.state == CircuitBreaker.CLOSED:
                    chosen = replica
                    break
            if chosen is None:
                for replica in candidates:
                    if replica.breaker.allow():  # claims the half-open probe
                        chosen = replica
                        break
            if chosen is None:
                raise CircuitOpenError(
                    min(
                        (r.breaker.retry_after_s for r in self.replicas
                         if r.breaker is not None),
                        default=0.0,
                    )
                )
            chosen.inflight += 1
            chosen.dispatches += 1
            if self.metrics is not None:
                self.metrics.replica_dispatch_total.inc(1.0, chosen.name)
            return chosen

    def _release(self, replica: EngineReplica, failed: bool) -> None:
        with self._lock:
            replica.inflight -= 1
            b = replica.breaker
            if b is None:
                return
            if failed:
                opened_before = b.opened_total
                b.record_failure()
                if b.opened_total != opened_before and self.metrics is not None:
                    self.metrics.circuit_opened_total.inc()
                    self.metrics.replica_circuit_opened_total.inc(1.0, replica.name)
            else:
                b.record_success()

    def run_grouped(self, xs, tags=None):
        """Serve one coalesced group on some healthy replica.

        This is the micro-batcher's runner: one call per group.  A
        replica failure records on that replica's breaker and fails
        over to the next healthy one; the original exception propagates
        only once every candidate has refused or failed.  ``tags`` holds
        the SNG family of each request, in order (a ``None`` entry, or
        ``tags=None`` for the whole group, keeps the replica's
        configured family); it is forwarded to the replica engine as its
        ``generator=``, which runs each request's shards under its own
        family.
        """
        last_exc: Exception | None = None
        tried: set[int] = set()
        while len(tried) < len(self.replicas):
            try:
                replica = self._acquire(tried)
            except CircuitOpenError:
                if last_exc is not None:
                    raise last_exc
                raise
            try:
                if tags is None:
                    out = replica.engine.logits_grouped(xs)
                else:
                    out = replica.engine.logits_grouped(xs, generator=tags)
            except Exception as exc:
                self._release(replica, failed=True)
                tried.add(replica.index)
                last_exc = exc
                continue
            self._release(replica, failed=False)
            return out
        raise last_exc
