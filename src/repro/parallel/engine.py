"""Sharded batched SC-CNN inference engine (process pool + shared memory).

The entry points mirror the serial API so callers opt in with one
``parallelism=`` knob:

* :func:`predict_logits` / :func:`predict_batched` — whole-network
  batched inference, images sharded across a ``ProcessPoolExecutor``;
* :func:`parallel_matmul` — one engine matmul sharded over the
  (output-tiles x columns) grid, the paper's ``T_M`` tiling axis;
* :class:`BatchInferenceEngine` — an object wrapper carrying the
  network and configuration for repeated batches.

Bit-exactness contract: for a fixed ``batch_size``/``tile_size``, the
reassembled result is identical no matter how shards are distributed —
worker counts, process pool vs in-process, ragged final batches, empty
batches.  This holds because shards write disjoint output blocks and
every output element is computed by exactly one shard with the very
same arithmetic (per-element accumulation never crosses a shard
boundary).  The chunk sizes themselves are part of the contract for
the same reason they are in the serial engine's ``batch=`` parameter:
the SC conv arithmetic is integer-exact at any shape, but the float
dense head goes through BLAS, whose summation order may differ between
a ``(1, d)`` and a ``(7, d)`` operand.  The differential fleet in
``tests/parallel`` enforces the contract.

Fault tolerance extends the same contract to degraded runs: recovery
is always *re-execution of the same shards with the same arithmetic*,
never approximation, so a run that survived worker crashes, hung
shards or torn segments returns bit-for-bit what the undisturbed run
returns.  Three mechanisms, all governed by
:class:`~repro.parallel.scheduler.RetryPolicy`:

* **shard retry** — a task that raises is resubmitted with capped
  exponential backoff, up to ``max_attempts``;
* **pool respawn** — a broken pool (worker death, failed initializer,
  segment corruption detected at attach) tears down the executor,
  rebuilds every shared segment from the parent's source arrays,
  carries completed output blocks forward and re-dispatches only the
  unfinished shards, up to ``max_pool_respawns`` waves;
* **shard timeout** — an attempt overdue past ``shard_timeout_s`` is
  abandoned and the shard re-dispatched to a surviving worker; if the
  straggler eventually finishes, its write is identical bytes to a
  disjoint block and therefore harmless.

``workers=0`` runs the same scheduler/reassembly path in-process (no
pool, no shared memory) and is the reference the fleet compares
against; ``workers>=1`` uses the pool.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from repro.faults import hooks as _faults
from repro.parallel import worker as _worker
from repro.parallel.cache import active_compiled, get_worker_cache
from repro.parallel.scheduler import BatchScheduler, RetryPolicy, Shard
from repro.parallel.shm import SharedArrayPool

__all__ = [
    "ParallelConfig",
    "ShardFailedError",
    "PoolRespawnError",
    "resolve_parallelism",
    "predict_logits",
    "predict_batched",
    "predict_logits_grouped",
    "group_shards",
    "parallel_matmul",
    "BatchInferenceEngine",
]


class ShardFailedError(RuntimeError):
    """A shard exhausted its retry budget (raises or timeouts)."""


class PoolRespawnError(RuntimeError):
    """The pool kept breaking past the respawn budget."""


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the batched engine.

    ``workers=0`` executes shards in-process (serial reference path);
    ``workers>=1`` uses a process pool of that size.  ``batch_size``
    chunks the image axis, ``tile_size`` the output-tile axis of
    matmul-level sharding (0 = whole axis).  ``use_cache`` enables the
    per-worker FSM-schedule caches; disabling it reproduces the
    uncached serial engine's work profile exactly.  ``retry`` governs
    how pool dispatch survives failing, hung, or dying shards — the
    policy never changes *what* is computed, only how many times the
    same shards are re-executed.

    ``generator`` overrides the SNG family (:mod:`repro.sc.generators`
    registry key) of every dispatched conventional-SC engine for the
    duration of the call (``None`` = leave engines as constructed).
    Only the spec *string* crosses process boundaries — each worker
    resolves it locally.  Engines without a stochastic number source
    ignore the override.
    """

    workers: int = 0
    batch_size: int = 64
    tile_size: int = 0
    start_method: str | None = None
    use_cache: bool = True
    retry: RetryPolicy = RetryPolicy()
    generator: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.batch_size < 0 or self.tile_size < 0:
            raise ValueError("chunk sizes must be >= 0")
        if self.generator is not None:
            # fail fast in the parent, before any pool is spawned: an
            # unknown generator spec should never be discovered inside
            # a pool worker
            from repro.sc.generators import resolve_generator

            resolve_generator(self.generator)

    def context(self):
        """The multiprocessing context for this configuration."""
        method = self.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)


def resolve_parallelism(parallelism) -> ParallelConfig:
    """Normalize the ``parallelism=`` knob (int or config) to a config."""
    if parallelism is None:
        return ParallelConfig()
    if isinstance(parallelism, ParallelConfig):
        return parallelism
    if isinstance(parallelism, (int, np.integer)):
        return ParallelConfig(workers=int(parallelism))
    raise TypeError(f"parallelism must be None, int or ParallelConfig, got {parallelism!r}")


def _n_outputs(net) -> int:
    """Logit width of a network: the bias length of its last head layer."""
    for layer in reversed(net.layers):
        for p in reversed(layer.params):
            if p.value.ndim == 1:
                return int(p.value.size)
    raise ValueError("cannot infer network output width (no bias-carrying layer)")


# --------------------------------------------------------------------------
# resilient pool dispatch
# --------------------------------------------------------------------------


class _PoolBroken(Exception):
    """Internal: the executor died mid-wave; respawn and re-dispatch."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _run_sharded_pool(config: ParallelConfig, shards: list[Shard], task, populate) -> np.ndarray:
    """Execute ``shards`` on a resilient process pool; return the output.

    ``populate(pool)`` builds every shared segment inside the given
    :class:`SharedArrayPool` — including allocating ``"out"`` — and
    returns ``(initializer, initargs)``.  It is re-invoked on every
    respawn wave, which is exactly what heals segment corruption: the
    parent still owns the pristine source arrays, so fresh segments
    carry fresh checksums no matter what happened to the old ones.
    """
    retry = config.retry
    plan = _faults.active_plan()
    ctx = config.context()
    outstanding = {s.index: s for s in shards}
    attempts = {s.index: 0 for s in shards}
    carried: np.ndarray | None = None
    wave = 0
    while True:
        with SharedArrayPool() as pool:
            initializer, initargs = populate(pool)
            out = pool.array("out")
            if carried is not None:
                # completed blocks survive the respawn verbatim; the
                # re-dispatched shards overwrite their own blocks below
                out[...] = carried
            executor = ProcessPoolExecutor(
                max_workers=config.workers,
                mp_context=ctx,
                initializer=initializer,
                initargs=initargs + (plan, wave),
            )
            try:
                _drain_wave(executor, task, outstanding, attempts, retry, wave)
                executor.shutdown(wait=True)
                return out.copy()
            except _PoolBroken as exc:
                executor.shutdown(wait=False, cancel_futures=True)
                carried = out.copy()
                wave += 1
                if wave > retry.max_pool_respawns:
                    raise PoolRespawnError(
                        f"process pool broke {wave} times "
                        f"(respawn budget {retry.max_pool_respawns}): {exc.cause}"
                    ) from exc.cause
            except BaseException:
                executor.shutdown(wait=False, cancel_futures=True)
                raise


def _drain_wave(executor, task, outstanding, attempts, retry: RetryPolicy, wave: int) -> None:
    """Drive every outstanding shard to completion on one executor.

    Mutates ``outstanding`` (completed shards removed) and ``attempts``
    (incremented on raise/timeout).  Raises :class:`_PoolBroken` the
    moment the executor dies so the caller can respawn.
    """
    pending: dict = {}  # future -> (shard, deadline | None)

    def submit(shard: Shard) -> None:
        try:
            future = executor.submit(task, shard, attempts[shard.index])
        except BrokenProcessPool as exc:
            raise _PoolBroken(exc) from exc
        deadline = (
            time.monotonic() + retry.shard_timeout_s if retry.shard_timeout_s else None
        )
        pending[future] = (shard, deadline)

    for shard in list(outstanding.values()):
        # a respawned wave is itself a retry: shards re-dispatched
        # after a crash must not replay the crash-at-attempt-0 fault
        attempts[shard.index] = max(attempts[shard.index], wave)
        submit(shard)

    sleeping: list[tuple[float, Shard]] = []  # (wake time, shard) backoff queue
    while pending or sleeping:
        now = time.monotonic()
        for entry in list(sleeping):
            if now >= entry[0]:
                sleeping.remove(entry)
                submit(entry[1])
        events = [w for w, _ in sleeping]
        events += [d for _, d in pending.values() if d is not None]
        timeout = max(0.0, min(events) - time.monotonic()) if events else None
        if pending:
            finished, _ = wait(list(pending), timeout=timeout, return_when=FIRST_COMPLETED)
        else:
            time.sleep(timeout or 0.0)
            finished = set()

        for future in finished:
            shard, _ = pending.pop(future)
            try:
                future.result()
            except _PoolBroken:
                raise
            except (BrokenProcessPool, BrokenPipeError, EOFError) as exc:
                raise _PoolBroken(exc) from exc
            except Exception as exc:
                attempts[shard.index] += 1
                if attempts[shard.index] >= retry.max_attempts:
                    raise ShardFailedError(
                        f"shard {shard.index} failed {attempts[shard.index]} times "
                        f"(budget {retry.max_attempts}): {exc}"
                    ) from exc
                wake = time.monotonic() + retry.backoff_s(attempts[shard.index])
                sleeping.append((wake, shard))
            else:
                outstanding.pop(shard.index, None)

        if retry.shard_timeout_s:
            now = time.monotonic()
            overdue = [f for f, (_, d) in pending.items() if d is not None and now >= d]
            for future in overdue:
                shard, _ = pending.pop(future)
                # abandon the straggler: if it ever finishes, it writes
                # identical bytes to a disjoint block — harmless
                attempts[shard.index] += 1
                if attempts[shard.index] >= retry.max_attempts:
                    raise ShardFailedError(
                        f"shard {shard.index} timed out {attempts[shard.index]} times "
                        f"(budget {retry.max_attempts}, "
                        f"timeout {retry.shard_timeout_s:g}s)"
                    )
                submit(shard)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def predict_logits(net, x: np.ndarray, parallelism=None) -> np.ndarray:
    """Batched logits; bit-exact across worker counts at fixed chunking.

    ``batch_size=0`` evaluates the whole set as one shard and is then
    bit-exact with ``net.forward(x)`` itself.
    """
    config = resolve_parallelism(parallelism)
    x = np.asarray(x)
    n = x.shape[0]
    n_out = _n_outputs(net)
    scheduler = BatchScheduler(n, 1, batch_size=config.batch_size)
    shards = scheduler.shards()
    if n == 0:
        return np.empty((0, n_out), dtype=np.float64)

    if config.workers == 0:
        out = np.empty((n, n_out), dtype=np.float64)
        restore = _attach_caches_inproc(net, config)
        try:
            for shard in shards:
                out[shard.image_slice] = _worker.forward_logits(
                    net, x[shard.image_slice]
                )
        finally:
            restore()
        return out

    skel, state = _worker.net_skeleton(net)
    x_arr = np.ascontiguousarray(x)

    def populate(pool: SharedArrayPool):
        weight_specs = [pool.share(f"w{i}", p) for i, p in enumerate(state)]
        x_spec = pool.share("x", x_arr)
        out_spec = pool.alloc("out", (n, n_out), np.float64)
        return _worker.init_network_worker, (
            skel,
            weight_specs,
            x_spec,
            out_spec,
            config.use_cache,
            _share_compiled(pool, config),
            config.generator,
        )

    return _run_sharded_pool(config, shards, _worker.run_network_shard, populate)


def predict_batched(net, x: np.ndarray, parallelism=None) -> np.ndarray:
    """Predicted class indices (argmax of :func:`predict_logits`)."""
    return predict_logits(net, x, parallelism).argmax(axis=1)


def group_shards(counts, batch_size: int) -> list[Shard]:
    """Shards of a concatenated request group, chunked *within* requests.

    ``counts`` are per-request image counts laid out back to back.  A
    shard never spans a request boundary, and each request is chunked
    from its own offset 0 in steps of ``batch_size`` (0 = whole
    request) — exactly the chunks a direct ``predict_logits`` call on
    that request alone would forward.  This is what makes micro-batched
    serving bit-exact per request: every shard's forward pass sees the
    same array content no matter which requests were coalesced with it.
    """
    if batch_size < 0:
        raise ValueError("chunk sizes must be >= 0")
    shards: list[Shard] = []
    offset = 0
    for n in counts:
        n = int(n)
        if n < 0:
            raise ValueError("request sizes must be >= 0")
        step = batch_size or max(n, 1)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            shards.append(Shard(len(shards), (offset + lo, offset + hi), (0, 1)))
        offset += n
    return shards


def predict_logits_grouped(net, xs, parallelism=None) -> list[np.ndarray]:
    """Logits for a group of request batches in one engine call.

    ``xs`` is a list of per-request image arrays.  The group is
    evaluated as a single pool dispatch (one shared-memory round, one
    pool submission wave) but sharded at request boundaries, so

        predict_logits_grouped(net, [a, b], cfg)
            == [predict_logits(net, a, cfg), predict_logits(net, b, cfg)]

    bit-exactly, for any way requests are coalesced.  This is the
    execution primitive of the serving micro-batcher.
    """
    config = resolve_parallelism(parallelism)
    xs = [np.asarray(x) for x in xs]
    if not xs:
        return []
    tails = {x.shape[1:] for x in xs}
    if len(tails) != 1:
        raise ValueError(f"requests disagree on image shape: {sorted(map(str, tails))}")
    counts = [x.shape[0] for x in xs]
    bounds = np.cumsum([0] + counts)
    n = int(bounds[-1])
    n_out = _n_outputs(net)
    shards = group_shards(counts, config.batch_size)
    if n == 0 or not shards:
        out = np.empty((n, n_out), dtype=np.float64)
        return [out[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]
    x = np.concatenate(xs) if len(xs) > 1 else xs[0]

    if config.workers == 0:
        out = np.empty((n, n_out), dtype=np.float64)
        restore = _attach_caches_inproc(net, config)
        try:
            for shard in shards:
                out[shard.image_slice] = _worker.forward_logits(net, x[shard.image_slice])
        finally:
            restore()
        return [out[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]

    skel, state = _worker.net_skeleton(net)
    x_arr = np.ascontiguousarray(x)

    def populate(pool: SharedArrayPool):
        weight_specs = [pool.share(f"w{i}", p) for i, p in enumerate(state)]
        x_spec = pool.share("x", x_arr)
        out_spec = pool.alloc("out", (n, n_out), np.float64)
        return _worker.init_network_worker, (
            skel,
            weight_specs,
            x_spec,
            out_spec,
            config.use_cache,
            _share_compiled(pool, config),
            config.generator,
        )

    result = _run_sharded_pool(config, shards, _worker.run_network_shard, populate)
    return [result[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]


def parallel_matmul(engine, w: np.ndarray, x: np.ndarray, parallelism=None) -> np.ndarray:
    """``engine.matmul(w, x)`` sharded over the (tiles x columns) grid."""
    config = resolve_parallelism(parallelism)
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {w.shape} @ {x.shape}")
    m, p = w.shape[0], x.shape[1]
    scheduler = BatchScheduler(p, m, batch_size=config.batch_size, tile_size=config.tile_size)
    shards = scheduler.shards()
    out = np.zeros((m, p), dtype=np.float64)
    if not shards:
        return out

    if config.workers == 0:
        restore = _attach_engine_cache_inproc(engine, config)
        try:
            for shard in shards:
                out[shard.tile_slice, shard.image_slice] = engine.matmul(
                    w[shard.tile_slice], x[:, shard.image_slice]
                )
        finally:
            restore()
        return out

    w_arr = np.ascontiguousarray(w)
    x_arr = np.ascontiguousarray(x)

    def populate(pool: SharedArrayPool):
        w_spec = pool.share("w", w_arr)
        x_spec = pool.share("x", x_arr)
        out_spec = pool.alloc("out", (m, p), np.float64)
        return _worker.init_matmul_worker, (
            engine,
            w_spec,
            x_spec,
            out_spec,
            config.use_cache,
            _share_compiled(pool, config),
            config.generator,
        )

    return _run_sharded_pool(config, shards, _worker.run_matmul_shard, populate)


def _share_compiled(pool: SharedArrayPool, config: ParallelConfig):
    """Share the active compiled-schedule artifact into ``pool``.

    Returns the read-only segment spec for the worker initializers, or
    ``None`` when no artifact is attached (or caching is off) — workers
    then build schedules on demand, exactly the pre-artifact behaviour.
    Re-invoked on every respawn wave via ``populate``, so post-fault
    waves attach to a fresh, pristine copy of the same bytes.
    """
    compiled = active_compiled() if config.use_cache else None
    if compiled is None:
        return None
    return pool.share("sched", compiled.blob)


def _attach_caches_inproc(net, config: ParallelConfig):
    """Attach the process cache / generator override to a net's engines.

    Returns an undo restoring the previous attributes.  The cache
    attach is gated on ``use_cache``; the ``config.generator`` override
    applies regardless.
    """
    undos = []
    for conv in net.conv_layers:
        engine = conv.engine
        if config.use_cache and hasattr(engine, "cache"):
            undos.append((engine, "cache", engine.cache))
            engine.cache = get_worker_cache()
        if config.generator is not None and hasattr(engine, "generator"):
            undos.append((engine, "generator", engine.generator))
            engine.generator = config.generator
    return lambda: [setattr(e, attr, prev) for e, attr, prev in undos]


def _attach_engine_cache_inproc(engine, config: ParallelConfig):
    undos = []
    if config.use_cache and hasattr(engine, "cache"):
        undos.append((engine, "cache", engine.cache))
        engine.cache = get_worker_cache()
    if config.generator is not None and hasattr(engine, "generator"):
        undos.append((engine, "generator", engine.generator))
        engine.generator = config.generator
    return lambda: [setattr(e, attr, prev) for e, attr, prev in undos]


class BatchInferenceEngine:
    """Object wrapper: a network plus a parallel configuration.

    Convenient for serving-style call sites that evaluate many batches
    with the same knobs::

        engine = BatchInferenceEngine(net, ParallelConfig(workers=4))
        labels = engine.predict(x)

    ``hooks`` is a small observability protocol: each entry is a
    callable ``hook(n_images, seconds, workers)`` invoked after every
    engine dispatch.  The serving layer registers its metrics adapter
    here; the engine itself stays importable without :mod:`repro.serve`
    (hooks are plain callables, no serve types involved).

    ``name`` identifies one engine among replicas (the serving pool
    names them ``r0``, ``r1``, ...).  A named engine scopes its
    ``engine.dispatch`` fault-site keys to ``"<key>@<name>"`` so a
    chaos schedule can kill exactly one replica; unnamed engines keep
    the bare ``"grouped"``/``"logits"`` keys.

    Calls on one engine run one at a time.  An in-process run
    (``workers=0``) sets the generator override and the cache on the
    net's shared conv engines for its duration, so two overlapping
    calls would each run under the other's family and restore the
    wrong one.  The serving pool can hand one replica two groups at
    once (an open breaker, a failover), so :meth:`logits` and
    :meth:`logits_grouped` hold a per-engine lock.
    """

    def __init__(
        self, net, config: ParallelConfig | int | None = None, hooks=(),
        name: str | None = None,
    ) -> None:
        self.net = net
        self.config = resolve_parallelism(config)
        self.hooks = list(hooks)
        self.name = name
        self._lock = threading.Lock()

    def _dispatch_key(self, kind: str) -> str:
        return f"{kind}@{self.name}" if self.name else kind

    def add_hook(self, hook) -> None:
        """Register a ``hook(n_images, seconds, workers)`` observer."""
        self.hooks.append(hook)

    def _notify(self, n_images: int, seconds: float) -> None:
        for hook in self.hooks:
            hook(n_images, seconds, self.config.workers)

    def logits(self, x: np.ndarray) -> np.ndarray:
        if _faults.enabled():
            _faults.fire("engine.dispatch", key=self._dispatch_key("logits"))
        with self._lock:
            t0 = time.perf_counter()
            out = predict_logits(self.net, x, self.config)
            self._notify(int(np.asarray(x).shape[0]), time.perf_counter() - t0)
        return out

    def logits_grouped(self, xs, generator: str | None = None) -> list[np.ndarray]:
        """Per-request logits for a coalesced group (micro-batching).

        ``generator`` overrides the SNG family for this one group (the
        serving plane's per-request ``generator=`` field lands here);
        ``None`` keeps the engine's configured family.  The override
        rides a config copy, but an in-process run applies it to the
        net's shared conv engines while it runs, so overlapping groups
        are safe only because calls on one engine are serialized (see
        the class docstring).
        """
        if _faults.enabled():
            _faults.fire("engine.dispatch", key=self._dispatch_key("grouped"))
        config = self.config if generator is None else replace(self.config, generator=generator)
        with self._lock:
            t0 = time.perf_counter()
            out = predict_logits_grouped(self.net, xs, config)
            n = sum(int(np.asarray(x).shape[0]) for x in xs)
            self._notify(n, time.perf_counter() - t0)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(labels)).mean())
