"""EnginePool unit fleet: selection policy, breakers, failover, facade.

Pure synchronous tests over stub engines — no sockets, no asyncio.
The dispatch-policy contract pinned here:

* least-loaded replica wins; ties break on the lowest index;
* a replica with an open breaker is not a candidate, so one sick
  replica never black-holes the others;
* a failed dispatch records on the failing replica's breaker and fails
  over to the next healthy replica before the error propagates;
* the :class:`PoolCircuit` facade refuses admission only when every
  replica is open.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.parallel import ParallelConfig
from repro.serve import CircuitOpenError, EnginePool, ServiceMetrics
from repro.serve.breaker import CircuitBreaker


class FakeEngine:
    """Records the groups it served; can be gated or made to fail."""

    def __init__(self, tag, fail_times=0, gate=None):
        self.tag = tag
        self.fail_times = fail_times
        self.gate = gate
        self.calls = []
        self.name = None

    def logits_grouped(self, xs):
        self.calls.append([np.asarray(x).shape[0] for x in xs])
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError(f"{self.tag} exploded")
        if self.gate is not None:
            assert self.gate.wait(5.0)
        return [np.full((np.asarray(x).shape[0], 3), float(self.tag)) for x in xs]


def make_pool(engines, threshold=2, metrics=None):
    return EnginePool(
        engines,
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=threshold, cooldown_s=60.0
        ),
        metrics=metrics,
    )


GROUP = [np.zeros((2, 4)), np.zeros((1, 4))]


class TestDispatchPolicy:
    def test_idle_pool_ties_break_on_lowest_index(self):
        engines = [FakeEngine(i) for i in range(3)]
        pool = make_pool(engines)
        for _ in range(3):
            out = pool.run_grouped(GROUP)
            assert out[0][0, 0] == 0.0  # r0 wins every idle tie
        assert [len(e.calls) for e in engines] == [3, 0, 0]

    def test_busy_replica_is_skipped_for_idle_one(self):
        gate = threading.Event()
        engines = [FakeEngine(0, gate=gate), FakeEngine(1)]
        pool = make_pool(engines)
        results = {}

        def first():
            results["first"] = pool.run_grouped(GROUP)

        t = threading.Thread(target=first)
        t.start()
        # wait until r0 is actually holding its in-flight dispatch
        for _ in range(500):
            if engines[0].calls:
                break
            t.join(0.01)
        assert engines[0].calls
        out = pool.run_grouped(GROUP)  # r0 busy -> least-loaded is r1
        assert out[0][0, 0] == 1.0
        gate.set()
        t.join(5.0)
        assert results["first"][0][0, 0] == 0.0
        assert pool.dispatch_counts() == {"r0": 1, "r1": 1}

    def test_replica_names_assigned_for_fault_scoping(self):
        engines = [FakeEngine(i) for i in range(2)]
        make_pool(engines)
        assert [e.name for e in engines] == ["r0", "r1"]

    def test_single_replica_keeps_engine_unnamed(self):
        engine = FakeEngine(0)
        make_pool([engine])
        assert engine.name is None  # bare fault keys, old single-engine path


class TestFailoverAndBreakers:
    def test_failed_dispatch_fails_over_bit_for_bit(self):
        engines = [FakeEngine(0, fail_times=1), FakeEngine(1)]
        pool = make_pool(engines)
        out = pool.run_grouped(GROUP)
        assert out[0][0, 0] == 1.0  # served by r1 after r0 failed
        assert [len(e.calls) for e in engines] == [1, 1]
        assert pool.replicas[0].breaker.failures == 1

    def test_tripped_replica_stops_receiving_traffic(self):
        engines = [FakeEngine(0, fail_times=10), FakeEngine(1)]
        pool = make_pool(engines, threshold=2)
        for _ in range(4):
            pool.run_grouped(GROUP)
        assert pool.replicas[0].breaker.state == CircuitBreaker.OPEN
        # r0 took exactly its 2 pre-trip dispatches; r1 served everything
        assert len(engines[0].calls) == 2
        assert len(engines[1].calls) == 4

    def test_every_replica_failing_propagates_the_error(self):
        engines = [FakeEngine(0, fail_times=1), FakeEngine(1, fail_times=1)]
        pool = make_pool(engines)
        with pytest.raises(RuntimeError, match="exploded"):
            pool.run_grouped(GROUP)

    def test_all_open_raises_circuit_open(self):
        engines = [FakeEngine(0, fail_times=10), FakeEngine(1, fail_times=10)]
        pool = make_pool(engines, threshold=1)
        with pytest.raises(RuntimeError):
            pool.run_grouped(GROUP)  # trips both (failover tries each)
        with pytest.raises(CircuitOpenError) as info:
            pool.run_grouped(GROUP)
        assert info.value.retry_after_s > 0

    def test_breakerless_pool_never_refuses(self):
        engines = [FakeEngine(0, fail_times=1), FakeEngine(1)]
        pool = EnginePool(engines)  # no breaker_factory
        assert pool.circuit is None
        out = pool.run_grouped(GROUP)  # still fails over
        assert out[0][0, 0] == 1.0


class TestPoolCircuitFacade:
    def test_state_is_healthiest_replica(self):
        engines = [FakeEngine(0, fail_times=10), FakeEngine(1)]
        pool = make_pool(engines, threshold=1)
        circuit = pool.circuit
        assert circuit.state == "closed"
        pool.run_grouped(GROUP)  # r0 trips, r1 serves
        assert pool.replicas[0].breaker.state == "open"
        assert circuit.state == "closed"  # one healthy replica left
        assert circuit.allow()
        assert circuit.opened_total == 1

    def test_all_open_refuses_with_min_retry_after(self):
        engines = [FakeEngine(0, fail_times=10), FakeEngine(1, fail_times=10)]
        pool = make_pool(engines, threshold=1)
        with pytest.raises(RuntimeError):
            pool.run_grouped(GROUP)
        assert pool.circuit.state == "open"
        assert not pool.circuit.allow()
        assert 0 < pool.circuit.retry_after_s <= 60.0

    def test_record_methods_are_noops(self):
        pool = make_pool([FakeEngine(0)])
        circuit = pool.circuit
        circuit.record_failure()
        circuit.record_success()
        circuit.record_inconclusive()
        assert pool.replicas[0].breaker.failures == 0

    def test_describe_carries_per_replica_documents(self):
        pool = make_pool([FakeEngine(0), FakeEngine(1)])
        pool.run_grouped(GROUP)
        doc = pool.circuit.describe()
        assert doc["state"] == "closed"
        assert [r["replica"] for r in doc["replicas"]] == ["r0", "r1"]
        assert doc["replicas"][0]["dispatches"] == 1
        assert doc["replicas"][0]["circuit"]["state"] == "closed"

    def test_describe_reports_each_replica_pool_size(self):
        engines = [FakeEngine(0), FakeEngine(1)]
        engines[0].config = ParallelConfig(workers=2)
        engines[1].config = ParallelConfig(workers=0)
        docs = make_pool(engines).describe()
        assert [doc["workers"] for doc in docs] == [2, 0]


class TestPoolMetrics:
    def test_per_replica_dispatch_and_circuit_metrics(self):
        metrics = ServiceMetrics()
        engines = [FakeEngine(0, fail_times=10), FakeEngine(1)]
        pool = make_pool(engines, threshold=1, metrics=metrics)
        pool.run_grouped(GROUP)
        assert metrics.replica_dispatch_total.value("r0") == 1.0
        assert metrics.replica_dispatch_total.value("r1") == 1.0
        assert metrics.replica_circuit_state.value("r0") == 2.0  # open
        assert metrics.replica_circuit_state.value("r1") == 0.0  # closed
        assert metrics.replica_circuit_opened_total.value("r0") == 1.0
        assert metrics.replica_circuit_opened_total.value("r1") == 0.0
        assert metrics.circuit_opened_total.value() == 1.0

    def test_replica_labels_predeclared_in_exposition(self):
        metrics = ServiceMetrics()
        make_pool([FakeEngine(0), FakeEngine(1)], metrics=metrics)
        text = metrics.render()
        assert 'repro_replica_dispatch_total{replica="r0"} 0' in text
        assert 'repro_replica_circuit_state{replica="r1"} 0' in text
