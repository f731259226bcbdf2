"""Sharded batched SC-CNN inference: one run loop, inline or on threads.

The entry points mirror the serial API so callers opt in with one
``parallelism=`` knob:

* :func:`predict_logits` / :func:`predict_batched` — whole-network
  batched inference over one image array;
* :func:`predict_logits_grouped` — a group of request batches in one
  call, sharded at request boundaries (the serving micro-batcher's
  execution primitive);
* :class:`BatchInferenceEngine` — an object wrapper carrying the
  network and configuration for repeated batches.

The run loop: :func:`group_shards` chunks the request into image
shards, which run inline (``workers`` 0 or 1, or a one-shard call) or
on the process-wide executor of ``workers`` shard threads, each shard
writing its own rows of one output array.  Every shard is one
``net.forward(x, generator=...)`` under the SNG family of its own
request: the family travels down as an argument instead of being set
on the shared conv engines, and the engines draw their schedules from
the process cache, so calls on one network may overlap, and one call
may mix families.
The per-layer work of an SC conv layer is one numpy gather and one GEMM
(or one gather and one sum), both of which release the GIL, so shard
threads use several cores.

Bit-exactness contract: for a fixed ``batch_size`` the result is
identical for any ``workers``, for ragged final shards and for empty
requests.  This holds because shards write disjoint output rows and
every output element is computed by exactly one shard with the very
same arithmetic.  The chunk sizes themselves are part of the contract
for the same reason they are in the serial engine's ``batch=``
parameter: the SC conv arithmetic is integer-exact at any shape, but
the float dense head goes through BLAS, whose summation order may
differ between a ``(1, d)`` and a ``(7, d)`` operand.  The differential
fleet in ``tests/parallel`` enforces the contract.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.sc.generators import resolve_generator

__all__ = [
    "Shard",
    "ParallelConfig",
    "resolve_parallelism",
    "predict_logits",
    "predict_batched",
    "predict_logits_grouped",
    "group_shards",
    "available_cpus",
    "BatchInferenceEngine",
]


@dataclass(frozen=True)
class Shard:
    """One ``[start, stop)`` span of a request group's image axis,
    inside request number ``request`` of the group."""

    index: int
    images: tuple[int, int]
    request: int

    @property
    def image_slice(self) -> slice:
        return slice(*self.images)

    @property
    def n_images(self) -> int:
        return self.images[1] - self.images[0]


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the batched engine.

    ``workers=N`` runs a call's shards on the process-wide executor of
    ``N`` shard threads, made on first use and shared by every call with
    the same ``N``; ``0`` and ``1`` run them inline on the calling
    thread, as does a call with one shard.  ``batch_size`` chunks the
    image axis (0 = one shard per request).

    ``generator`` is the SNG family (:mod:`repro.sc.generators`
    registry key) the call passes down ``net.forward`` to every
    conventional-SC conv engine (``None`` = each engine's configured
    family).  Engines without a stochastic number source ignore it.
    """

    workers: int = 0
    batch_size: int = 64
    generator: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.batch_size < 0:
            raise ValueError("chunk sizes must be >= 0")
        if self.generator is not None:
            # fail fast at construction: an unknown generator spec
            # should never be discovered halfway through a call
            resolve_generator(self.generator)


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
    for request, n in enumerate(counts):
        n = int(n)
        if n < 0:
            raise ValueError("request sizes must be >= 0")
        step = batch_size or max(n, 1)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            shards.append(Shard(len(shards), (offset + lo, offset + hi), request))
        offset += n
    return shards


def available_cpus() -> int:
    """The number of CPUs this process may run on (``repro serve``'s
    default shard-thread count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: One shard executor per ``workers`` value, made once and shared by
#: every call for the life of the process.
_SHARD_POOLS: dict[int, ThreadPoolExecutor] = {}
_SHARD_POOLS_LOCK = threading.Lock()


def _run_shards(net, x: np.ndarray, out: np.ndarray, shards, families, workers: int) -> None:
    """Forward every shard of ``x`` into its rows of ``out``.

    Shard ``s`` runs under ``families[s.request]``, the SNG family of
    its own request.  Inline when ``workers`` is 0 or 1 or the call has
    one shard; otherwise every shard goes to the process-wide executor
    of ``workers`` threads, whose threads persist across calls.  The
    call waits for every shard before it raises the first shard
    exception, in shard order, so no shard still runs once this returns.
    """

    def run(shard: Shard) -> None:
        out[shard.image_slice] = net.forward(
            x[shard.image_slice], generator=families[shard.request]
        )

    if workers <= 1 or len(shards) <= 1:
        for shard in shards:
            run(shard)
        return
    with _SHARD_POOLS_LOCK:
        if workers not in _SHARD_POOLS:
            _SHARD_POOLS[workers] = ThreadPoolExecutor(workers, thread_name_prefix="repro-shard")
        pool = _SHARD_POOLS[workers]
    futures = [pool.submit(run, shard) for shard in shards]
    wait(futures)
    for future in futures:
        future.result()


def predict_logits(net, x: np.ndarray, parallelism=None) -> np.ndarray:
    """Batched logits; bit-exact across worker counts at fixed chunking.

    ``batch_size=0`` evaluates the whole set as one shard and is then
    bit-exact with ``net.forward(x)`` itself.
    """
    return predict_logits_grouped(net, [x], parallelism)[0]


def predict_batched(net, x: np.ndarray, parallelism=None) -> np.ndarray:
    """Predicted class indices (argmax of :func:`predict_logits`)."""
    return predict_logits(net, x, parallelism).argmax(axis=1)


def predict_logits_grouped(net, xs, parallelism=None, generators=None) -> list[np.ndarray]:
    """Logits for a group of request batches in one engine call.

    ``xs`` is a list of per-request image arrays.  The group runs as
    one call (one output array) but is sharded at request boundaries,
    so

        predict_logits_grouped(net, [a, b], cfg)
            == [predict_logits(net, a, cfg), predict_logits(net, b, cfg)]

    bit-exactly, for any way requests are coalesced.  This is the
    execution primitive of the serving micro-batcher.

    ``generators`` names the SNG family of each request, in order, or
    one family (a registry key) for the whole group; ``None``, whole or
    as an entry, keeps the config's ``generator``.  Every shard runs
    under its own request's family, so a group mixing families answers
    each request as a call with that family alone would.
    """
    config = resolve_parallelism(parallelism)
    xs = [np.asarray(x) for x in xs]
    if not xs:
        return []
    tails = {x.shape[1:] for x in xs}
    if len(tails) != 1:
        raise ValueError(f"requests disagree on image shape: {sorted(map(str, tails))}")
    if generators is None or isinstance(generators, str):
        generators = [generators] * len(xs)
    elif len(generators) != len(xs):
        raise ValueError(f"{len(generators)} generators for {len(xs)} requests")
    families = [config.generator if g is None else g for g in generators]
    for family in set(families) - {None}:
        resolve_generator(family)  # fail fast, before any shard runs
    counts = [x.shape[0] for x in xs]
    bounds = np.cumsum([0] + counts)
    n = int(bounds[-1])
    out = np.empty((n, _n_outputs(net)), dtype=np.float64)
    shards = group_shards(counts, config.batch_size)
    if shards:
        x = np.concatenate(xs) if len(xs) > 1 else xs[0]
        _run_shards(net, x, out, shards, families, config.workers)
    return [out[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]


class BatchInferenceEngine:
    """Object wrapper: a network plus a parallel configuration.

    Convenient for serving-style call sites that evaluate many batches
    with the same knobs::

        engine = BatchInferenceEngine(net, ParallelConfig(workers=4))
        labels = engine.predict(x)

    :meth:`add_hook` registers a small observability protocol: a
    callable ``hook(n_images, seconds, workers)`` invoked after every
    engine dispatch.  The serving layer registers its metrics adapter
    there; the engine itself stays importable without :mod:`repro.serve`
    (hooks are plain callables, no serve types involved).

    Calls on one engine may overlap: a call carries its SNG family as
    an argument instead of setting it on the shared conv engines, so
    two callers' groups each run under their own family.
    """

    def __init__(self, net, config: ParallelConfig | int | None = None) -> None:
        self.net = net
        self.config = resolve_parallelism(config)
        self.hooks = []

    def add_hook(self, hook) -> None:
        """Register a ``hook(n_images, seconds, workers)`` observer."""
        self.hooks.append(hook)

    def _notify(self, n_images: int, seconds: float) -> None:
        for hook in self.hooks:
            hook(n_images, seconds, self.config.workers)

    def logits(self, x: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = predict_logits(self.net, x, self.config)
        self._notify(int(np.asarray(x).shape[0]), time.perf_counter() - t0)
        return out

    def logits_grouped(self, xs, generator=None) -> list[np.ndarray]:
        """Per-request logits for a coalesced group (micro-batching).

        ``generator`` sets the SNG family: one registry key for the
        whole group, or one entry per request in order (the serving
        plane's per-request ``generator=`` fields land here); ``None``,
        whole or as an entry, keeps the engine's configured family.
        Each shard runs under its own request's family, passed down as
        an argument, so overlapping groups each keep their own.
        """
        t0 = time.perf_counter()
        out = predict_logits_grouped(self.net, xs, self.config, generator)
        n = sum(int(np.asarray(x).shape[0]) for x in xs)
        self._notify(n, time.perf_counter() - t0)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(labels)).mean())
