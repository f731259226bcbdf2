"""Dynamic micro-batcher: coalesce in-flight requests into engine calls.

Requests (each a small image batch) arrive on an asyncio queue and are
coalesced into *groups* of at most ``max_batch_size`` images; a group
is dispatched as soon as it is full, or when the oldest request in it
has waited ``max_wait_ms``.  Each group is one runner call: the runner
receives the group as a *list* of per-request arrays and a list of
their tags, one per request in order, and must return one result per
request — the engine side is
:meth:`repro.parallel.BatchInferenceEngine.logits_grouped`, which
shards at request boundaries and runs each shard under its own
request's tag, so coalescing can never change a request's bits (see
:func:`repro.parallel.engine.group_shards`).

Invariants (pinned by the hypothesis suite in
``tests/serve/test_batcher.py``):

* no accepted request is lost or duplicated — every submitted request
  resolves exactly once, with exactly its own result;
* FIFO: requests appear in runner calls in submission order, both
  within a group and across groups;
* a group never exceeds ``max_batch_size`` images unless a *single*
  request is itself larger (oversized requests are dispatched alone
  rather than rejected);
* a request never waits longer than ~``max_wait_ms`` for coalescing
  (engine execution time comes on top — admission control and
  deadlines live one layer up, in :mod:`repro.serve.service`).

Groups execute one at a time on one executor thread, so the event
loop stays responsive while the engine runs: the loop forms the next
group meanwhile and hands it over once the group before it is
answered.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.serve.metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


@dataclass
class _Request:
    x: np.ndarray
    future: asyncio.Future = field(repr=False)
    enqueued_at: float
    #: per-request execution tag (the serving plane's ``generator=``);
    #: ``None`` = the runner's configured default
    tag: str | None = None

    @property
    def n_images(self) -> int:
        return int(self.x.shape[0])


#: Queue sentinel marking the end of accepted traffic during drain.
_DRAIN = object()


class MicroBatcher:
    """Coalesce request arrays into bounded groups for one runner.

    ``runner`` is a synchronous callable ``runner(list_of_arrays,
    list_of_tags) -> list_of_results`` executed off-loop, once per
    group, with one tag per request in order (``None`` for untagged
    ones).  ``max_batch_size`` bounds the images per group and
    ``max_wait_ms`` the coalescing delay.
    """

    def __init__(
        self,
        runner,
        max_batch_size: int = 32,
        max_wait_ms: float = 5.0,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.runner = runner
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.metrics = metrics or ServiceMetrics()
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._holdover: _Request | None = None
        self._draining = False
        #: the group on the executor, if any
        self._running: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def depth(self) -> int:
        """Requests queued and not yet dispatched."""
        n = self._queue.qsize() if self._queue is not None else 0
        return n + (1 if self._holdover is not None else 0)

    async def start(self) -> None:
        if self.is_running:
            raise RuntimeError("batcher already running")
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-batch")
        self._running = None
        self._draining = False
        self._task = asyncio.create_task(self._run(), name="repro-microbatcher")

    async def drain(self) -> None:
        """Stop accepting, flush every queued request, stop the loop."""
        if self._queue is None:
            return
        if not self._draining:
            self._draining = True
            self._queue.put_nowait(_DRAIN)
        if self._task is not None:
            await self._task
            self._task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission --------------------------------------------------------
    def submit(self, x: np.ndarray, tag: str | None = None) -> asyncio.Future:
        """Enqueue one request; the future resolves to its own result.

        Synchronous up to the enqueue, so a caller that checked
        admission cannot be raced by a drain starting on the same loop:
        anything accepted before the drain sentinel is flushed by it.

        ``tag`` rides with the request to the runner (the per-request
        ``generator=`` of the serving plane); tagged requests still
        coalesce with untagged and differently tagged ones — the group's
        one runner call carries every request's own tag, so coalescing
        never changes which tag a request executes under.
        """
        if not self.is_running or self._draining:
            raise RuntimeError("batcher is not accepting requests")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._queue.put_nowait(_Request(np.asarray(x), future, loop.time(), tag))
        return future

    # -- the coalescing loop ----------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        drained = False
        while not drained:
            first = await self._next_request()
            if first is None:
                break  # drain sentinel with an empty queue
            group = [first]
            total = first.n_images
            deadline = first.enqueued_at + self.max_wait_ms / 1000.0
            reason = "full" if total >= self.max_batch_size else None
            while reason is None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    reason = "timeout"
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except (asyncio.TimeoutError, TimeoutError):
                    reason = "timeout"
                    break
                if item is _DRAIN:
                    reason = "drain"
                    drained = True
                    break
                if item.future.done():  # deadline-cancelled while queued
                    continue
                if total + item.n_images > self.max_batch_size:
                    self._holdover = item
                    reason = "full"
                    break
                group.append(item)
                total += item.n_images
                if total >= self.max_batch_size:
                    reason = "full"
            await self._dispatch(group, total, reason, loop)
        # Drain mode: flush whatever is still queued (including a
        # holdover) in max_batch_size groups, then exit.
        while self.depth:
            group, total = [], 0
            while self.depth and total < self.max_batch_size:
                item = self._holdover or self._queue.get_nowait()
                self._holdover = None
                if item is _DRAIN or item.future.done():
                    continue
                if group and total + item.n_images > self.max_batch_size:
                    self._holdover = item
                    break
                group.append(item)
                total += item.n_images
            if group:
                await self._dispatch(group, total, "drain", loop)
        if self._running is not None:
            await self._running

    async def _dispatch(self, group, total: int, reason: str | None, loop) -> None:
        """Start the group once the group before it is answered.

        Waiting here keeps group formation paced to the engine; the
        group itself executes in a background task so the loop can
        coalesce the next group while the engine runs.
        """
        if self._running is not None:
            await self._running
        self._running = loop.create_task(self._execute(group, total, reason, loop))

    async def _next_request(self) -> _Request | None:
        """The first request of the next group (or None once drained)."""
        while True:
            if self._holdover is not None:
                item, self._holdover = self._holdover, None
            else:
                item = await self._queue.get()
            if item is _DRAIN:
                return None
            if item.future.done():
                continue
            return item

    async def _execute(self, group, total: int, reason: str | None, loop) -> None:
        group = [r for r in group if not r.future.done()]
        if not group:
            return
        m = self.metrics
        now = loop.time()
        for req in group:
            m.queue_wait.observe(now - req.enqueued_at)
        m.batch_size.observe(total)
        m.batch_flush_total.inc(1.0, reason or "timeout")
        try:
            xs = [r.x for r in group]
            tags = [r.tag for r in group]
            results = await loop.run_in_executor(self._executor, self.runner, xs, tags)
            if len(results) != len(group):
                raise RuntimeError(
                    f"runner returned {len(results)} results "
                    f"for {len(group)} requests"
                )
            for req, res in zip(group, results):
                if not req.future.done():
                    req.future.set_result(res)
        except Exception as exc:  # propagate to every caller of the group
            for req in group:
                if not req.future.done():
                    req.future.set_exception(exc)
