"""Async SC-CNN inference service over the sharded batch engine.

The serving plane in layers, composed by :class:`ServingServer`:

* :mod:`repro.serve.metrics` — lock-free counters/histograms and the
  Prometheus ``/metrics`` exposition;
* :mod:`repro.serve.batcher` — dynamic micro-batching of in-flight
  requests into bit-exact grouped engine dispatches;
* :mod:`repro.serve.pool` — the batcher's runner: one group, one call
  of the server's one engine;
* :mod:`repro.serve.service` — bounded admission with backpressure,
  per-request deadlines, graceful drain and the circuit breaker;
* :mod:`repro.serve.http` — the stdlib asyncio HTTP/1.1 front end
  (``POST /v1/predict``, ``GET /healthz``, ``GET /metrics``).

Start one from the CLI with ``repro serve``; see ``docs/serving.md``.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.http import (
    RAW_CONTENT_TYPE,
    ServerConfig,
    ServingServer,
    build_engine,
    get_active_server,
    pack_raw_request,
    run_server,
)
from repro.serve.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledGauge,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.serve.pool import EnginePool
from repro.serve.service import (
    CircuitOpenError,
    DeadlineExceededError,
    InferenceService,
    QueueFullError,
    ServiceError,
    ShuttingDownError,
)

__all__ = [
    "MicroBatcher",
    "ServerConfig",
    "ServingServer",
    "build_engine",
    "get_active_server",
    "run_server",
    "RAW_CONTENT_TYPE",
    "pack_raw_request",
    "EnginePool",
    "Counter",
    "Gauge",
    "LabeledGauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "InferenceService",
    "ServiceError",
    "QueueFullError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "CircuitBreaker",
    "CircuitOpenError",
]
