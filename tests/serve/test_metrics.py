"""Metrics primitives and the pinned /metrics exposition golden.

The golden file freezes the service's observability contract — every
family name, type, HELP string, bucket bound, and pre-declared label
combination.  A fresh :class:`ServiceMetrics` renders all zeros, so the
exposition is fully deterministic.
"""

from __future__ import annotations

import pytest

from repro.serve import Counter, Gauge, Histogram, MetricsRegistry, ServiceMetrics
from repro.serve.metrics import LATENCY_BUCKETS


class TestCounter:
    def test_unlabeled_counts(self):
        c = Counter("x_total", "help me")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert "x_total 3.5" in c.render()

    def test_labeled_series_and_declare(self):
        c = Counter("req_total", "requests", ("code",))
        c.declare("404")
        c.inc(1.0, "200")
        text = c.render()
        assert 'req_total{code="200"} 1' in text
        assert 'req_total{code="404"} 0' in text

    def test_label_arity_enforced(self):
        c = Counter("req_total", "requests", ("code",))
        with pytest.raises(ValueError):
            c.inc(1.0)
        with pytest.raises(ValueError):
            c.inc(1.0, "200", "extra")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("inflight", "gauge")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value() == 2.0

    def test_callback_wins(self):
        g = Gauge("layers", "gauge", callback=lambda: 7)
        g.set(99)
        assert g.value() == 7.0
        assert "layers 7" in g.render()


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        h = Histogram("lat", "latency", (0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        text = h.render()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert h.count == 4 and h.sum == pytest.approx(6.05)

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", "no buckets", ())


class TestRegistry:
    def test_duplicate_names_rejected(self):
        r = MetricsRegistry()
        r.counter("a_total", "a")
        with pytest.raises(ValueError):
            r.counter("a_total", "again")

    def test_render_ends_with_newline(self):
        r = MetricsRegistry()
        r.gauge("g", "gauge")
        assert r.render().endswith("\n")


class TestServiceMetrics:
    def test_exposition_matches_golden(self, golden):
        golden.check("metrics_exposition.txt", ServiceMetrics().render())

    def test_engine_hook_records_dispatch(self):
        m = ServiceMetrics()
        m.engine_hook(16, 0.2, 2)
        assert m.engine_batches_total.value() == 1.0
        assert m.engine_batch_seconds.count == 1
        assert m.engine_batch_seconds.sum == pytest.approx(0.2)

    def test_cache_hook_and_attach(self):
        class FakeCache:
            hook = None

            def stats(self):
                return {"layers": 4}

        m = ServiceMetrics()
        cache = FakeCache()
        m.attach_schedule_cache(cache)
        cache.hook("miss")
        cache.hook("hit")
        cache.hook("hit")
        assert m.cache_events_total.value("hit") == 2.0
        assert m.cache_events_total.value("miss") == 1.0
        assert m.cache_layers.value() == 4.0

    def test_latency_buckets_cover_sc_range(self):
        # The serving latency span on CPU: ms to tens of seconds.
        assert LATENCY_BUCKETS[0] <= 0.005 and LATENCY_BUCKETS[-1] >= 10.0
