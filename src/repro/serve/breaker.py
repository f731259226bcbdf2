"""Circuit breaker for the serving plane's engine path.

A run of engine failures means the backend is sick — an engine that
fails every call, a model artifact gone bad — and hammering it
with more traffic only piles latency onto guaranteed 500s.  The
breaker turns that failure mode into fast, honest refusals:

* **closed** (healthy) — requests flow; consecutive engine failures
  are counted, any success resets the count;
* **open** — after ``failure_threshold`` consecutive failures, every
  request is refused up front (HTTP 503 + ``Retry-After``) for
  ``cooldown_s`` seconds, costing the backend nothing;
* **half-open** — once the cooldown elapses, exactly *one* probe
  request is let through.  If it succeeds the circuit closes; if it
  fails the circuit re-opens for another cooldown.

The breaker is pure bookkeeping on a monotonic clock — no tasks, no
locks (the serving loop is single-threaded) — and the clock is
injectable so tests drive state transitions without sleeping.
"""

from __future__ import annotations

import time

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a single half-open probe."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0
        self.opened_total = 0
        self._opened_at: float | None = None
        self._probe_inflight = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self._probe_inflight:
            return self.HALF_OPEN
        if self.clock() - self._opened_at >= self.cooldown_s:
            return self.HALF_OPEN
        return self.OPEN

    @property
    def retry_after_s(self) -> float:
        """Seconds until the next probe slot (0 when not open)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown_s - (self.clock() - self._opened_at))

    def allow(self) -> bool:
        """May this request proceed?  Claims the probe slot if half-open."""
        if self._opened_at is None:
            return True
        if self._probe_inflight:
            return False
        if self.clock() - self._opened_at >= self.cooldown_s:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        """An engine call finished; close the circuit, reset the count."""
        self.failures = 0
        self._opened_at = None
        self._probe_inflight = False

    def record_failure(self) -> None:
        """An engine call failed; trip or re-open the circuit as due."""
        if self._probe_inflight:
            # the half-open probe failed: full cooldown again
            self._probe_inflight = False
            self._opened_at = self.clock()
            return
        self.failures += 1
        if self._opened_at is None and self.failures >= self.failure_threshold:
            self._opened_at = self.clock()
            self.opened_total += 1

    def record_inconclusive(self) -> None:
        """The call ended without an engine verdict (client deadline).

        Releases a held probe slot without closing or re-opening the
        circuit, so the next request can probe again immediately.
        """
        self._probe_inflight = False

    def describe(self) -> dict:
        """State document for ``/healthz`` and logs."""
        return {
            "state": self.state,
            "failures": self.failures,
            "opened_total": self.opened_total,
            "retry_after_s": round(self.retry_after_s, 3),
        }
