"""Thread shards: ``workers=N`` runs a call's shards on N threads.

Every shard thread of a call runs the same network under the call's
SNG family and writes its own rows of one output array, so the answer
must be bit-identical to the inline run (``workers=0``) for every
engine, SNG family, request geometry and process-cache state.  The fleet runs with a
1 µs switch interval so the threads interleave as often as CPython
allows.  The process :class:`~repro.parallel.ScheduleCache` is shared
by every shard thread, so its memo bookkeeping is stress-tested here
too.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.mvm import sc_matmul
from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import (
    ParallelConfig,
    ScheduleCache,
    get_worker_cache,
    predict_logits_grouped,
    reset_worker_cache,
)

N_BITS = 5
BATCH = 2
THREADS = (2, 3)
FAMILIES = (None, "lfsr", "halton", "ed", "mip", "parallel")

#: (engine kind, generator, warm): ``warm=False`` drops the process
#: cache before every call, so the shard threads build its entries
#: concurrently.
CASES = [
    ("float", None, True),
    ("fixed", None, True),
    ("truncated-sc", None, True),
    ("proposed-sc", None, True),
    ("proposed-sc", None, False),
] + [("lfsr-sc", family, True) for family in FAMILIES]


def _case_id(case) -> str:
    kind, family, warm = case
    if kind == "lfsr-sc":
        return f"lfsr-sc-{family}"
    if kind == "proposed-sc":
        return f"proposed-sc-{'cache' if warm else 'nocache'}"
    return kind


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(31).normal(0.0, 0.5, size=(13, 1, 28, 28))


def fresh_net(kind: str):
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    attach_engines(net, kind, [LayerRanges(1.0, 1.0)] * 2, n_bits=N_BITS)
    return net


@contextlib.contextmanager
def fast_switching():
    """Switch threads every microsecond inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _assert_groups_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# -- bit-exact parity -----------------------------------------------------


@pytest.mark.parametrize("workers", THREADS)
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_thread_shards_match_inline(images, case, workers):
    """Ragged requests with a zero-size one in the middle, twice over."""
    kind, family, warm = case
    net = fresh_net(kind)
    xs = [images[:5], images[5:5], images[5:6], images[6:13]]
    inline = ParallelConfig(workers=0, batch_size=BATCH, generator=family)
    expected = predict_logits_grouped(net, xs, inline)
    threaded = ParallelConfig(workers=workers, batch_size=BATCH, generator=family)
    with fast_switching():
        for _ in range(2):
            if not warm:
                reset_worker_cache()
            _assert_groups_equal(predict_logits_grouped(net, xs, threaded), expected)


@pytest.mark.parametrize("workers", THREADS)
def test_thread_shards_empty_and_zero_size_requests(images, workers):
    net = fresh_net("proposed-sc")
    config = ParallelConfig(workers=workers, batch_size=BATCH)
    with fast_switching():
        for _ in range(2):
            assert predict_logits_grouped(net, [], config) == []
            empty = predict_logits_grouped(net, [images[:0], images[:0]], config)
            assert [e.shape for e in empty] == [(0, 10), (0, 10)]


# -- a raising shard ------------------------------------------------------


class ShardBoom(RuntimeError):
    pass


def test_a_raising_shard_fails_the_call_after_every_shard_returned(images):
    """One shard raises inside a ``workers=2`` call.

    The other shard is still inside its forward pass when the first one
    raises.  The call must raise that very exception, only after every
    shard returned, with every conv engine still on its configured
    generator; the next call must be bit-exact.
    """
    net = fresh_net("lfsr-sc")
    config = ParallelConfig(workers=2, batch_size=BATCH, generator="halton")
    xs = [images[:4]]
    expected = predict_logits_grouped(net, xs, config)
    before = [conv.engine.generator for conv in net.conv_layers]

    boom = ShardBoom("shard 0 failed")
    forward = net.forward
    lock = threading.Lock()
    running = []
    started = threading.Event()

    def flaky_forward(x, generator=None):
        with lock:
            running.append(x[0].tobytes())
        try:
            if x[0].tobytes() == images[0].tobytes():
                started.wait(timeout=5.0)  # the other shard is running
                raise boom
            started.set()
            time.sleep(0.2)
            return forward(x, generator=generator)
        finally:
            with lock:
                running.remove(x[0].tobytes())

    net.forward = flaky_forward
    try:
        with pytest.raises(ShardBoom) as excinfo:
            predict_logits_grouped(net, xs, config)
        assert excinfo.value is boom
        assert running == []
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-shard")]
    finally:
        del net.forward
    assert [conv.engine.generator for conv in net.conv_layers] == before
    _assert_groups_equal(predict_logits_grouped(net, xs, config), expected)


# -- the shared ScheduleCache ---------------------------------------------


def test_schedule_cache_shared_by_threads_keeps_its_books():
    """Three threads hammer one small cache: no KeyError, exact counters.

    Sixteen weight matrices cycle through a ``max_layers=4`` LRU, so
    lookups hit entries that other threads are evicting.  Without the
    cache lock a hit's ``move_to_end`` races another thread's
    ``popitem`` and raises ``KeyError``.
    """
    rng = np.random.default_rng(0)
    ws = [rng.integers(-8, 8, size=(2, 3)) for _ in range(16)]
    x = rng.integers(-8, 8, size=(3, 2))
    expected = [sc_matmul(w, x, 4, 2) for w in ws]
    cache = ScheduleCache(max_layers=4)
    calls, errors = 4000, []
    products = {offset: [] for offset in (0, 2, 4)}
    start = threading.Barrier(len(products))

    def run(offset):
        start.wait()
        try:
            for k in range(calls):
                products[offset].append(cache.sc_matmul(ws[(offset + k) % len(ws)], x, 4, 2))
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(offset,)) for offset in products]
    with fast_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for offset, got in products.items():
        for k, product in enumerate(got):
            assert np.array_equal(product, expected[(offset + k) % len(ws)])
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == len(products) * calls
    assert stats["layers"] <= 4


def test_threads_on_a_dropped_process_cache_all_get_one(monkeypatch):
    """Threads that start on a dropped process cache all get the same one.

    Every shard thread reaches :func:`get_worker_cache` from its engine
    calls, so the first ``workers>=2`` call after a drop must not build
    two caches and throw one away with its entries and counters.  The
    cache's constructor sleeps, so every thread arrives while the first
    one is still building it.
    """

    class SlowCache(ScheduleCache):
        def __init__(self, *args, **kwargs):
            time.sleep(0.002)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("repro.parallel.cache.ScheduleCache", SlowCache)
    rounds, n_threads = 10, 4
    start = threading.Barrier(n_threads)
    seen = [[] for _ in range(rounds)]

    def run():
        for k in range(rounds):
            start.wait()
            seen[k].append(get_worker_cache())
            if start.wait() == 0:
                reset_worker_cache()  # before any thread passes the next barrier

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    reset_worker_cache()
    try:
        with fast_switching():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
    finally:
        reset_worker_cache()
    assert not any(thread.is_alive() for thread in threads)
    assert [len({id(cache) for cache in caches}) for caches in seen] == [1] * rounds


@pytest.mark.parametrize("kind", ("proposed-sc", "lfsr-sc", "fixed"))
def test_one_engine_serves_each_thread_its_own_weights(kind):
    """Threads sharing one engine call it with different weights.

    The engine memoizes its quantized weights (and, for LFSR-SC, its
    weight rows) keyed by weight content, and each miss replaces the
    entry whole.  Every product must still be the one of the weights
    its call passed, never of the weights another thread just put in
    the memo.
    """
    from repro.nn.engines import make_engine

    rng = np.random.default_rng(5)
    ws = [rng.uniform(-1.0, 1.0, size=(3, 12)) for _ in range(4)]
    x = make_engine(kind, n_bits=N_BITS).encode(rng.uniform(-1.0, 1.0, size=(12, 6)))
    expected = [make_engine(kind, n_bits=N_BITS).matmul(w, x) for w in ws]
    engine = make_engine(kind, n_bits=N_BITS)
    calls, errors = 300, []
    products = {offset: [] for offset in (0, 1, 2)}
    start = threading.Barrier(len(products))

    def run(offset):
        start.wait()
        try:
            for k in range(calls):
                products[offset].append(engine.matmul(ws[(offset + k) % len(ws)], x))
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(offset,)) for offset in products]
    with fast_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for offset, got in products.items():
        assert len(got) == calls
        for k, product in enumerate(got):
            assert np.array_equal(product, expected[(offset + k) % len(ws)])
