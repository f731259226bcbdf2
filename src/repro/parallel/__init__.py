"""Sharded batched inference over the SC-CNN engines.

Public surface of the parallel engine: the shard planner
(:func:`group_shards`), the run loop that executes shards inline or on
the persistent shard threads of this process, the process schedule
cache and its compiled artifacts, and the batched predict entry points.
See ``docs/testing.md`` for the bit-exactness guarantee and the test
fleets that enforce it.
"""

from repro.parallel.cache import (
    CachePoisonedError,
    ScheduleCache,
    attach_compiled,
    detach_compiled,
    get_worker_cache,
    reset_worker_cache,
)
from repro.parallel.compiled import (
    CompiledSchedules,
    compile_network_schedules,
    ensure_compiled,
    schedule_artifact_key,
    schedule_manifest,
)
from repro.parallel.engine import (
    BatchInferenceEngine,
    ParallelConfig,
    Shard,
    available_cpus,
    group_shards,
    predict_batched,
    predict_logits,
    predict_logits_grouped,
    resolve_parallelism,
)

__all__ = [
    "Shard",
    "CachePoisonedError",
    "ScheduleCache",
    "get_worker_cache",
    "reset_worker_cache",
    "attach_compiled",
    "detach_compiled",
    "CompiledSchedules",
    "compile_network_schedules",
    "ensure_compiled",
    "schedule_artifact_key",
    "schedule_manifest",
    "ParallelConfig",
    "resolve_parallelism",
    "predict_logits",
    "predict_batched",
    "predict_logits_grouped",
    "group_shards",
    "available_cpus",
    "BatchInferenceEngine",
]
