"""Worker-side plumbing of the batched inference pool.

Each pool worker is initialized exactly once: it unpickles a weightless
network *skeleton*, attaches the shared-memory segments (weights,
input batch, output logits), copies the weights into its skeleton and
installs its process-local :class:`~repro.parallel.cache.ScheduleCache`
on every cache-aware conv engine.  After that, a task is just a
:class:`~repro.parallel.scheduler.Shard` — a few bytes of pickle — and
the worker writes its logits block straight into the shared output.

The same module also hosts the matmul-level workers used by
:func:`repro.parallel.engine.parallel_matmul`, which shard a single
``W @ X`` over the (output-tiles x columns) grid.

When the parent precompiled a schedule artifact
(:mod:`repro.parallel.compiled`), the initializer also receives its
read-only shared-memory spec: the worker attaches, CRC-verifies and
parses it once, then every :class:`ScheduleCache` lookup is served out
of the shared segment — cold start does zero schedule builds.  Any
attach/parse/validate failure (chaos truncation, bit flips, a
future-versioned artifact) degrades to the on-demand build path; it
never fails the worker.

Fault-tolerance contract (see ``docs/testing.md``):

* the initializer verifies the checksummed read-only segments, so a
  torn or truncated segment fails the spawn loudly instead of
  computing on garbage;
* a failing shard attempt resets the worker's schedule caches before
  the error propagates — whatever state the failure may have poisoned
  is dropped, and the retry recomputes from the shared weights (the
  compiled artifact survives the drop, so the retry re-attaches warm);
* the fault hooks (``worker.init``, ``worker.shard``,
  ``cache.attach``) are single ``is not None`` checks when no plan is
  installed.

Setting ``REPRO_SCHED_STATS_DIR`` makes every successful shard append
one JSON line of its cache counters to ``<dir>/<pid>.jsonl`` — the
observability hook the respawn-warm tests use to prove post-fault
waves did not rebuild schedules.
"""

from __future__ import annotations

import copy
import json
import logging
import os

import numpy as np

from repro.errors import ArtifactVersionError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultInjected, FaultPlan
from repro.parallel.cache import (
    attach_compiled,
    detach_compiled,
    get_worker_cache,
    reset_worker_cache,
)
from repro.parallel.compiled import CompiledSchedules, ScheduleArtifactError
from repro.parallel.scheduler import Shard
from repro.parallel.shm import SegmentError, SharedArraySpec, SharedArrayView

__all__ = [
    "net_skeleton",
    "forward_logits",
    "attach_engine_caches",
    "init_network_worker",
    "run_network_shard",
    "init_matmul_worker",
    "run_matmul_shard",
]

logger = logging.getLogger("repro.artifacts")

#: Process-local state installed by the pool initializers.
_STATE: dict = {}


def net_skeleton(net):
    """Weightless deep copy of ``net`` plus its parameter arrays.

    The skeleton's parameters and layer caches are emptied so pickling
    it ships topology and engine configuration only; the actual weight
    tensors travel separately through shared memory.
    """
    state = [p.value.copy() for p in net.params]
    skel = copy.deepcopy(net)
    for layer in skel.layers:
        if hasattr(layer, "_cache"):
            layer._cache = None
    for p in skel.params:
        p.value = np.empty(0)
        p.grad = np.empty(0)
    for conv in skel.conv_layers:
        if hasattr(conv.engine, "cache"):
            conv.engine.cache = None
    return skel, state


def attach_engine_caches(net) -> None:
    """Point every cache-aware conv engine at this process's cache."""
    cache = get_worker_cache()
    for conv in net.conv_layers:
        if hasattr(conv.engine, "cache"):
            conv.engine.cache = cache


def forward_logits(net, x: np.ndarray) -> np.ndarray:
    """Forward pass returning logits (no argmax), ``(n, C)`` float64."""
    return np.asarray(net.forward(x), dtype=np.float64)


def _load_weights(net, weight_specs: list[SharedArraySpec]) -> None:
    if len(weight_specs) != len(net.params):
        raise ValueError("weight segment count does not match network parameters")
    for p, spec in zip(net.params, weight_specs):
        # close even if the copy or verify raises: a failed initializer
        # must not hold mappings open for the rest of the worker's life
        with SharedArrayView(spec) as view:
            view.verify()
            p.value = view.array.astype(np.float64, copy=True)
            p.grad = np.zeros_like(p.value)


def _install_faults(plan: FaultPlan | None, wave: int) -> None:
    """Adopt the parent's fault plan in this worker (fresh budgets)."""
    if plan is not None:
        plan.reset()
        _faults.install(plan)
    _faults.set_epoch(wave)


def _corrupt_blob(buf: np.ndarray, spec) -> np.ndarray:
    """Site-specific ``cache.attach`` fault actions, on a *local* copy.

    Unlike the ``shm.attach`` bitflip (which scribbles on the real
    segment), artifact corruption is applied to a private copy of the
    blob: the chaos scenario under test is "this worker read garbage",
    and healing means this worker alone falls back to on-demand builds
    while its siblings keep serving from the pristine segment.
    """
    local = np.array(buf, dtype=np.uint8)
    if spec.action == "truncate":
        return local[: max(1, local.size // 2)]
    if spec.action == "bitflip":
        if local.size:
            local[-1] ^= 0xFF  # payload byte: caught by the CRC check
    return local


def _adopt_compiled(sched_spec: SharedArraySpec | None, use_cache: bool) -> None:
    """Attach the shared compiled-schedule artifact, or degrade quietly.

    On success the parsed artifact becomes this process's
    ``active_compiled()`` and the segment view is pinned in ``_STATE``
    for the worker's lifetime.  On any failure — injected corruption,
    truncation, version skew, CRC mismatch — the worker logs the event
    and continues with on-demand schedule builds; parity is preserved
    either way, only ``stats()["rebuilds"]`` differs.
    """
    if sched_spec is None or not use_cache:
        detach_compiled()
        return
    label = sched_spec.label or sched_spec.name
    view = None
    try:
        fired = _faults.fire("cache.attach", key=label) if _faults.enabled() else ()
        view = SharedArrayView(sched_spec)
        view.verify()
        buf = view.array
        for f in fired:
            buf = _corrupt_blob(buf, f)
        compiled = CompiledSchedules(buf)
        compiled.validate()
    except (SegmentError, ScheduleArtifactError, ArtifactVersionError) as exc:
        if view is not None:
            view.close()
        detach_compiled()
        logger.warning(
            "event=fallback key=%s reason=%r", label, f"{type(exc).__name__}: {exc}"
        )
        return
    except BaseException:
        if view is not None:
            view.close()
        raise
    attach_compiled(compiled)
    _STATE["sched"] = view


def _dump_shard_stats(shard: Shard) -> None:
    """Debug observability: append this worker's cache counters."""
    stats_dir = os.environ.get("REPRO_SCHED_STATS_DIR")
    if not stats_dir:
        return
    record = {"pid": os.getpid(), "shard": shard.index, **get_worker_cache().stats()}
    with open(os.path.join(stats_dir, f"{os.getpid()}.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def _drop_poisonable_state() -> None:
    """Reset this worker's caches after a failed shard attempt.

    A failure mid-shard may have left half-built or poisoned schedule
    state behind; recovery is re-execution from the shared weights, so
    the cheap safe move is to drop every cache and re-attach a fresh
    one before the retry lands here.
    """
    reset_worker_cache()
    net = _STATE.get("net")
    if net is not None and _STATE.get("use_cache"):
        attach_engine_caches(net)
    engine = _STATE.get("engine")
    if engine is not None and _STATE.get("use_cache") and hasattr(engine, "cache"):
        engine.cache = get_worker_cache()


def _apply_generator_override(engines, generator: str | None) -> None:
    """Point SNG-aware engines at ``generator`` (a registry spec string).

    Resolved once here, loudly, at worker init, so an unknown family
    key fails the pool spawn in the parent rather than every shard.
    """
    if generator is None:
        return
    from repro.sc.generators import resolve_generator

    resolve_generator(generator)
    for engine in engines:
        if hasattr(engine, "generator"):
            engine.generator = generator


def init_network_worker(
    skel,
    weight_specs: list[SharedArraySpec],
    x_spec: SharedArraySpec,
    out_spec: SharedArraySpec,
    use_cache: bool,
    sched_spec: SharedArraySpec | None = None,
    generator: str | None = None,
    fault_plan: FaultPlan | None = None,
    wave: int = 0,
) -> None:
    """Pool initializer: rebuild the net and attach shared arrays."""
    _install_faults(fault_plan, wave)
    if _faults.enabled():
        _faults.fire("worker.init")
    # Start from a clean slate regardless of start method: a forked
    # worker inherits the parent's cache object, and "warm" must mean
    # "served by the artifact", not "leaked from the parent's memory".
    reset_worker_cache()
    _adopt_compiled(sched_spec, use_cache)
    _load_weights(skel, weight_specs)
    if use_cache:
        attach_engine_caches(skel)
    _apply_generator_override((conv.engine for conv in skel.conv_layers), generator)
    _STATE["net"] = skel
    _STATE["use_cache"] = use_cache
    _STATE["x"] = SharedArrayView(x_spec)
    _STATE["x"].verify()
    _STATE["out"] = SharedArrayView(out_spec)


def run_network_shard(shard: Shard, attempt: int = 0) -> int:
    """Evaluate one image shard; write logits into the shared output."""
    sl = shard.image_slice
    if _faults.enabled():
        for f in _faults.fire("worker.shard", index=shard.index, attempt=attempt):
            _apply_shard_fault(f, _STATE["out"].array, sl)
    try:
        logits = forward_logits(_STATE["net"], _STATE["x"].array[sl])
        _STATE["out"].array[sl] = logits
    except BaseException:
        _drop_poisonable_state()
        raise
    _dump_shard_stats(shard)
    return shard.index


def _apply_shard_fault(spec, out: np.ndarray, sl) -> None:
    """Site-specific fault actions of the ``worker.shard`` site."""
    if spec.action == "corrupt_output":
        # a torn write from a dying worker: scribble, then fail the
        # attempt so the dispatcher re-executes this exact shard
        out[sl] = np.float64(1e300)
        raise FaultInjected("worker.shard", spec)
    if spec.action == "poison_cache":
        get_worker_cache().poison()


def init_matmul_worker(
    engine,
    w_spec: SharedArraySpec,
    x_spec: SharedArraySpec,
    out_spec: SharedArraySpec,
    use_cache: bool,
    sched_spec: SharedArraySpec | None = None,
    generator: str | None = None,
    fault_plan: FaultPlan | None = None,
    wave: int = 0,
) -> None:
    """Pool initializer for sharded single-matmul execution."""
    _install_faults(fault_plan, wave)
    if _faults.enabled():
        _faults.fire("worker.init")
    reset_worker_cache()
    _adopt_compiled(sched_spec, use_cache)
    if use_cache and hasattr(engine, "cache"):
        engine.cache = get_worker_cache()
    _apply_generator_override((engine,), generator)
    _STATE["engine"] = engine
    _STATE["use_cache"] = use_cache
    _STATE["w"] = SharedArrayView(w_spec)
    _STATE["w"].verify()
    _STATE["x"] = SharedArrayView(x_spec)
    _STATE["x"].verify()
    _STATE["out"] = SharedArrayView(out_spec)


def run_matmul_shard(shard: Shard, attempt: int = 0) -> int:
    """Compute one (tile-rows x column-block) rectangle of ``W @ X``."""
    if _faults.enabled():
        for f in _faults.fire("worker.shard", index=shard.index, attempt=attempt):
            _apply_shard_fault(
                f, _STATE["out"].array, (shard.tile_slice, shard.image_slice)
            )
    try:
        w = _STATE["w"].array[shard.tile_slice]
        x = _STATE["x"].array[:, shard.image_slice]
        _STATE["out"].array[shard.tile_slice, shard.image_slice] = _STATE["engine"].matmul(w, x)
    except BaseException:
        _drop_poisonable_state()
        raise
    return shard.index
