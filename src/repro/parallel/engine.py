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
shards, which run inline (``workers`` 0 or 1) or split over
``min(workers, shards)`` threads, each writing its own rows of one
output array.  Every shard is one ``net.forward(x, generator=...)``:
the call's SNG family travels down as an argument instead of being set
on the shared conv engines, and the engines draw their schedules from
the process cache, so calls on one network may overlap.
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

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.faults import hooks as _faults

__all__ = [
    "Shard",
    "ParallelConfig",
    "resolve_parallelism",
    "predict_logits",
    "predict_batched",
    "predict_logits_grouped",
    "group_shards",
    "BatchInferenceEngine",
]


@dataclass(frozen=True)
class Shard:
    """One ``[start, stop)`` span of a request group's image axis."""

    index: int
    images: tuple[int, int]

    @property
    def image_slice(self) -> slice:
        return slice(*self.images)

    @property
    def n_images(self) -> int:
        return self.images[1] - self.images[0]


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the batched engine.

    ``workers=N`` runs a call's shards on ``N`` threads of this
    process; ``0`` and ``1`` run them inline on the calling thread.
    ``batch_size`` chunks the image axis (0 = one shard per request).

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
            from repro.sc.generators import resolve_generator

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
    for n in counts:
        n = int(n)
        if n < 0:
            raise ValueError("request sizes must be >= 0")
        step = batch_size or max(n, 1)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            shards.append(Shard(len(shards), (offset + lo, offset + hi)))
        offset += n
    return shards


def _run_shards(net, x: np.ndarray, out: np.ndarray, shards, config: ParallelConfig) -> None:
    """Forward every shard of ``x`` into its rows of ``out``.

    Inline when at most one thread would run; otherwise the shards are
    split over ``min(workers, len(shards))`` threads.  The executor is
    shut down (every thread returned) before the first shard exception,
    in shard order, is raised, so no shard still runs once this returns.
    """

    def run(shard: Shard) -> None:
        out[shard.image_slice] = net.forward(x[shard.image_slice], generator=config.generator)

    threads = min(config.workers, len(shards))
    if threads <= 1:
        for shard in shards:
            run(shard)
        return
    with ThreadPoolExecutor(max_workers=threads, thread_name_prefix="repro-shard") as pool:
        futures = [pool.submit(run, shard) for shard in shards]
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


def predict_logits_grouped(net, xs, parallelism=None) -> list[np.ndarray]:
    """Logits for a group of request batches in one engine call.

    ``xs`` is a list of per-request image arrays.  The group runs as
    one call (one output array) but is sharded at request boundaries,
    so

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
    out = np.empty((n, _n_outputs(net)), dtype=np.float64)
    shards = group_shards(counts, config.batch_size)
    if shards:
        x = np.concatenate(xs) if len(xs) > 1 else xs[0]
        _run_shards(net, x, out, shards, config)
    return [out[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]


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

    Calls on one engine may overlap: a call carries its SNG family as
    an argument instead of setting it on the shared conv engines, so
    two groups the serving pool hands one replica at once (an open
    breaker, a failover) each run under their own family.
    """

    def __init__(
        self, net, config: ParallelConfig | int | None = None, hooks=(),
        name: str | None = None,
    ) -> None:
        self.net = net
        self.config = resolve_parallelism(config)
        self.hooks = list(hooks)
        self.name = name

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
        t0 = time.perf_counter()
        out = predict_logits(self.net, x, self.config)
        self._notify(int(np.asarray(x).shape[0]), time.perf_counter() - t0)
        return out

    def logits_grouped(self, xs, generator: str | None = None) -> list[np.ndarray]:
        """Per-request logits for a coalesced group (micro-batching).

        ``generator`` overrides the SNG family for this one group (the
        serving plane's per-request ``generator=`` field lands here);
        ``None`` keeps the engine's configured family.  The override
        rides a config copy down to the conv engines, so overlapping
        groups each keep their own.
        """
        if _faults.enabled():
            _faults.fire("engine.dispatch", key=self._dispatch_key("grouped"))
        config = self.config if generator is None else replace(self.config, generator=generator)
        t0 = time.perf_counter()
        out = predict_logits_grouped(self.net, xs, config)
        n = sum(int(np.asarray(x).shape[0]) for x in xs)
        self._notify(n, time.perf_counter() - t0)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(labels)).mean())
