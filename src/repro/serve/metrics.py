"""Lock-free counters and Prometheus text exposition for the service.

Everything here is stdlib-only and intentionally lock-free: the serving
event loop is single-threaded and the only other writers are the
batcher's executor thread and engine hooks, whose updates are plain
``int``/``float`` adds on dict slots — atomic under the GIL.  The worst
a reader can observe on ``/metrics`` is a histogram whose ``_sum`` is
one observation ahead of a bucket, which Prometheus tolerates by
design (scrapes are not transactions).

The metric families exported by :class:`ServiceMetrics` form the
service's observability contract; their names, types, and pre-declared
label sets are pinned by the golden-file test
(``tests/serve/test_metrics.py`` against
``tests/golden/metrics_exposition.txt``), so the exposition cannot
silently drift.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "LabeledGauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "LATENCY_BUCKETS",
    "BATCH_BUCKETS",
    "DEPTH_BUCKETS",
]

#: Request/engine latency buckets (seconds), Prometheus defaults trimmed
#: to the range SC inference actually spans on CPU.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Batch-size buckets (images per engine dispatch).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Queue-depth buckets (requests waiting at admission time).
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _format_value(v: float) -> str:
    """Prometheus sample value: integral floats render without a dot."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(v: str) -> str:
    return str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(f'{n}="{_escape_label(v)}"' for n, v in zip(names, values))
    return "{" + pairs + "}"


class Metric:
    """Base: a named family with HELP/TYPE lines and labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def samples(self) -> list[tuple[str, tuple[str, ...], float]]:
        """``(suffix, label_values, value)`` rows, deterministic order."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for suffix, values, value in self.samples():
            labels = _render_labels(self._suffix_labelnames(suffix), values)
            lines.append(f"{self.name}{suffix}{labels} {_format_value(value)}")
        return "\n".join(lines)

    def _suffix_labelnames(self, suffix: str) -> tuple[str, ...]:
        return self.labelnames


class Counter(Metric):
    """Monotonic counter, optionally labeled.

    Declare expected label combinations up front with :meth:`declare`
    so they are visible (as 0) on ``/metrics`` before first use — that
    is what lets the golden test pin the full label set.
    """

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {} if labelnames else {(): 0.0}

    def declare(self, *label_values: str) -> "Counter":
        self._check(label_values)
        self._values.setdefault(tuple(map(str, label_values)), 0.0)
        return self

    def inc(self, amount: float = 1.0, *label_values: str) -> None:
        self._check(label_values)
        key = tuple(map(str, label_values))
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *label_values: str) -> float:
        return self._values.get(tuple(map(str, label_values)), 0.0)

    def _check(self, label_values) -> None:
        if len(label_values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {label_values!r}"
            )

    def samples(self):
        return [("", key, v) for key, v in sorted(self._values.items())]


class Gauge(Metric):
    """Instantaneous value; ``callback`` makes it a pull-time gauge."""

    kind = "gauge"

    def __init__(self, name: str, help: str, callback=None) -> None:
        super().__init__(name, help)
        self._value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value

    def samples(self):
        return [("", (), self.value())]


class LabeledGauge(Metric):
    """Instantaneous value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not labelnames:
            raise ValueError("LabeledGauge needs at least one label (use Gauge)")
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def _key(self, label_values) -> tuple[str, ...]:
        if len(label_values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {label_values!r}"
            )
        return tuple(map(str, label_values))

    def set(self, value: float, *label_values: str) -> None:
        self._values[self._key(label_values)] = float(value)

    def value(self, *label_values: str) -> float:
        return self._values.get(self._key(label_values), 0.0)

    def samples(self):
        return [("", key, v) for key, v in sorted(self._values.items())]


class Histogram(Metric):
    """Fixed-bucket histogram with cumulative ``_bucket`` exposition."""

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: tuple[float, ...]) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        self._sum += v
        self._count += 1
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self):
        rows = []
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            rows.append(("_bucket", (_format_value(bound),), float(cumulative)))
        rows.append(("_bucket", ("+Inf",), float(self._count)))
        rows.append(("_sum", (), self._sum))
        rows.append(("_count", (), float(self._count)))
        return rows

    def _suffix_labelnames(self, suffix: str) -> tuple[str, ...]:
        return ("le",) if suffix == "_bucket" else ()


class MetricsRegistry:
    """Ordered collection of metric families with one text renderer."""

    def __init__(self) -> None:
        self._metrics: list[Metric] = []
        self._names: set[str] = set()

    def register(self, metric: Metric) -> Metric:
        if metric.name in self._names:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        self._names.add(metric.name)
        self._metrics.append(metric)
        return metric

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str, callback=None) -> Gauge:
        return self.register(Gauge(name, help, callback))

    def labeled_gauge(
        self, name: str, help: str, labelnames: tuple[str, ...]
    ) -> LabeledGauge:
        return self.register(LabeledGauge(name, help, labelnames))

    def histogram(self, name: str, help: str, buckets: tuple[float, ...]) -> Histogram:
        return self.register(Histogram(name, help, buckets))

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4 (trailing newline)."""
        return "\n".join(m.render() for m in self._metrics) + "\n"


class ServiceMetrics:
    """The serving plane's metric families, wired to one registry.

    Bundles every counter/gauge/histogram the batcher, service, HTTP
    front end, and engine hooks report into, plus the adapters
    (:meth:`engine_hook`, :meth:`cache_hook`) that the parallel engine's
    hook protocol calls — keeping :mod:`repro.parallel` free of any
    serve import.
    """

    def __init__(self) -> None:
        r = self.registry = MetricsRegistry()
        self.requests_total = r.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            ("endpoint", "code"),
        )
        for endpoint, code in (
            ("/v1/predict", "200"),
            ("/v1/predict", "429"),
            ("/v1/predict", "500"),
            ("/v1/predict", "503"),
            ("/v1/predict", "504"),
            ("/healthz", "200"),
            ("/metrics", "200"),
        ):
            self.requests_total.declare(endpoint, code)
        self.rejected_total = r.counter(
            "repro_requests_rejected_total",
            "Requests refused at admission, by reason.",
            ("reason",),
        )
        for reason in ("backpressure", "circuit", "deadline", "shutdown"):
            self.rejected_total.declare(reason)
        self.inflight = r.gauge(
            "repro_requests_inflight",
            "Requests admitted and not yet answered.",
        )
        self.ready = r.gauge(
            "repro_service_ready",
            "1 once the engine is warm and the batcher is running, else 0.",
        )
        self.circuit_state = r.gauge(
            "repro_circuit_state",
            "Engine circuit breaker: 0 closed, 1 half-open, 2 open.",
        )
        self.circuit_opened_total = r.counter(
            "repro_circuit_opened_total",
            "Times the engine circuit breaker tripped open.",
        )
        self.connections_total = r.counter(
            "repro_http_connections_total",
            "TCP connections accepted by the HTTP front end.",
        )
        self.keepalive_reuses_total = r.counter(
            "repro_http_keepalive_reuses_total",
            "Requests served on an already-used keep-alive connection.",
        )
        self.pipelined_rejected_total = r.counter(
            "repro_http_pipelined_rejected_total",
            "Connections closed for pipelining a request before its "
            "predecessor's response.",
        )
        self.decode_total = r.counter(
            "repro_request_decode_total",
            "Predict request bodies decoded, by wire format.",
            ("format",),
        )
        for fmt in ("json", "raw"):
            self.decode_total.declare(fmt)
        self.request_latency = r.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of served predict requests.",
            LATENCY_BUCKETS,
        )
        self.queue_wait = r.histogram(
            "repro_queue_wait_seconds",
            "Time a request spent queued before its batch was dispatched.",
            LATENCY_BUCKETS,
        )
        self.queue_depth = r.histogram(
            "repro_admission_queue_depth",
            "Requests already in flight, observed at each admission.",
            DEPTH_BUCKETS,
        )
        self.batch_size = r.histogram(
            "repro_batch_size_images",
            "Images per coalesced engine dispatch.",
            BATCH_BUCKETS,
        )
        self.batch_flush_total = r.counter(
            "repro_batch_flush_total",
            "Micro-batch flushes, by trigger.",
            ("reason",),
        )
        for reason in ("full", "timeout", "drain"):
            self.batch_flush_total.declare(reason)
        self.engine_batches_total = r.counter(
            "repro_engine_batches_total",
            "Dispatches into the sharded batch inference engine.",
        )
        self.engine_batch_seconds = r.histogram(
            "repro_engine_batch_seconds",
            "Wall-clock of each engine dispatch (grouped shards included).",
            LATENCY_BUCKETS,
        )
        self.cache_events_total = r.counter(
            "repro_schedule_cache_events_total",
            "ScheduleCache layer-coefficient lookups, by outcome.",
            ("event",),
        )
        for event in ("hit", "miss"):
            self.cache_events_total.declare(event)
        self.cache_layers = r.gauge(
            "repro_schedule_cache_layers",
            "Layer-coefficient entries resident in the in-process cache.",
        )
        # registered last on purpose: families render in registration
        # order, so new families append to the golden exposition file
        self.generator_info = r.labeled_gauge(
            "repro_generator_info",
            "SNG generator families servable per request (value is always 1).",
            ("generator",),
        )

    # -- adapters for the parallel engine's hook protocol -----------------
    def engine_hook(self, n_images: int, seconds: float, workers: int) -> None:
        """``BatchInferenceEngine`` hook: one dispatch finished."""
        self.engine_batches_total.inc()
        self.engine_batch_seconds.observe(seconds)

    def cache_hook(self, event: str) -> None:
        """``ScheduleCache`` hook: a layer lookup hit or missed."""
        self.cache_events_total.inc(1.0, event)

    def attach_schedule_cache(self, cache) -> None:
        """Instrument a :class:`~repro.parallel.cache.ScheduleCache`."""
        cache.hook = self.cache_hook
        self.cache_layers.callback = lambda: cache.stats()["layers"]

    def attach_breaker(self, breaker) -> None:
        """Mirror a :class:`~repro.serve.breaker.CircuitBreaker`'s state."""
        codes = {"closed": 0.0, "half_open": 1.0, "open": 2.0}
        self.circuit_state.callback = lambda: codes[breaker.state]

    def attach_generators(self, keys) -> None:
        """Advertise the servable SNG generator registry keys."""
        for key in keys:
            self.generator_info.set(1.0, str(key))

    def render(self) -> str:
        return self.registry.render()
