"""Differential fleet: the sharded batched engine vs the serial reference.

Every test here asserts *bit-exact* equality (``np.array_equal``, no
tolerances) between the serial engine and the batched one, across the
axes the engine shards over: worker counts, batch chunking, ragged
final batches and empty batches.  The hypothesis properties drive the
inline paths; fixed-seed tests cover shards running on threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mvm import sc_matmul
from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.nn.engines import FixedPointEngine, ProposedScEngine
from repro.parallel import (
    ParallelConfig,
    ScheduleCache,
    get_worker_cache,
    group_shards,
    predict_logits,
    reset_worker_cache,
    resolve_parallelism,
)
from repro.sc.encoding import quantize_signed

POOL_WORKERS = (1, 2, 4)

def small_net(seed: int = 3):
    net = build_mnist_net(seed=seed, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=8)
    return net


@pytest.fixture(scope="module")
def net():
    return small_net()


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.5, size=(11, 1, 28, 28))


# -- scheduler: group_shards on one request (predict_logits' shard plan) ---


def test_scheduler_partitions_grid_exactly():
    shards = group_shards([10], batch_size=3)
    assert len(shards) == 4
    covered = np.zeros(10, dtype=int)
    for shard in shards:
        covered[shard.image_slice] += 1
    assert np.array_equal(covered, np.ones(10, dtype=int))
    assert [s.index for s in shards] == list(range(len(shards)))


def test_scheduler_zero_chunk_means_whole_axis():
    shards = group_shards([10], batch_size=0)
    assert len(shards) == 1
    assert shards[0].image_slice == slice(0, 10)


def test_scheduler_ragged_final_shard():
    shards = group_shards([10], batch_size=4)
    assert [s.n_images for s in shards] == [4, 4, 2]


def test_scheduler_empty_grid():
    assert group_shards([0], batch_size=4) == []
    assert group_shards([0], batch_size=0) == []
    assert group_shards([], batch_size=4) == []


def test_scheduler_rejects_negative_sizes():
    with pytest.raises(ValueError):
        group_shards([-1], batch_size=0)
    with pytest.raises(ValueError):
        group_shards([1], batch_size=-2)


# -- config ---------------------------------------------------------------


def test_resolve_parallelism_forms():
    assert resolve_parallelism(None).workers == 0
    assert resolve_parallelism(3).workers == 3
    config = ParallelConfig(workers=2, batch_size=8)
    assert resolve_parallelism(config) is config
    with pytest.raises(TypeError):
        resolve_parallelism("four")
    with pytest.raises(ValueError):
        ParallelConfig(workers=-1)


# -- cached sc_matmul vs core ---------------------------------------------


@given(
    n_bits=st.sampled_from([4, 8]),
    m=st.integers(0, 5),
    d=st.integers(0, 6),
    p=st.integers(0, 5),
    saturate=st.sampled_from(["final", "term", None]),
    data=st.data(),
)
@settings(max_examples=60)
def test_schedule_cache_matmul_matches_core(n_bits, m, d, p, saturate, data):
    half = 1 << (n_bits - 1)
    w = np.array(
        data.draw(st.lists(st.lists(st.integers(-half, half - 1), min_size=d, max_size=d),
                           min_size=m, max_size=m)),
        dtype=np.int64,
    ).reshape(m, d)
    x = np.array(
        data.draw(st.lists(st.lists(st.integers(-half, half - 1), min_size=p, max_size=p),
                           min_size=d, max_size=d)),
        dtype=np.int64,
    ).reshape(d, p)
    cache = ScheduleCache()
    expected = sc_matmul(w, x, n_bits, 2, saturate=saturate)
    got = cache.sc_matmul(w, x, n_bits, 2, saturate=saturate)
    assert np.array_equal(expected, got)
    # second call hits the cache and must stay identical
    assert np.array_equal(expected, cache.sc_matmul(w, x, n_bits, 2, saturate=saturate))


def test_schedule_cache_reuses_layer_entries():
    rng = np.random.default_rng(0)
    cache = ScheduleCache()
    w = rng.integers(-128, 128, size=(4, 9))
    for _ in range(3):
        cache.sc_matmul(w, rng.integers(-128, 128, size=(9, 5)), 8, 2)
    stats = cache.stats()
    assert stats["layers"] == 1
    assert stats["hits"] == 2


def test_schedule_cache_keyed_by_content_not_identity():
    """In-place weight mutation must not serve a stale schedule."""
    rng = np.random.default_rng(1)
    cache = ScheduleCache()
    w = rng.integers(-8, 8, size=(3, 6))
    x = rng.integers(-8, 8, size=(6, 4))
    first = cache.sc_matmul(w, x, 4, 2)
    assert np.array_equal(first, sc_matmul(w, x, 4, 2))
    w[0, 0] = -w[0, 0] - 1  # mutate the same array object
    second = cache.sc_matmul(w, x, 4, 2)
    assert np.array_equal(second, sc_matmul(w, x, 4, 2))


# -- cached sc_matmul: bit-row gather layout -------------------------------

#: (M, D, P) of one 16-image shard of the digits net's two conv layers
CONV_SHAPES = {"conv1": (8, 25, 9216), "conv2": (16, 200, 1024)}


def _operands(m, d, p, n_bits=8, seed=0):
    rng = np.random.default_rng(seed)
    half = 1 << (n_bits - 1)
    return rng.integers(-half, half, size=(m, d)), rng.integers(-half, half, size=(d, p))


def _assert_cached_twice_matches_core(w, x, n_bits, saturate):
    cache = ScheduleCache()
    expected = sc_matmul(w, x, n_bits, 2, saturate=saturate)
    for _ in range(2):  # the second call is served from the layer memo
        assert np.array_equal(expected, cache.sc_matmul(w, x, n_bits, 2, saturate=saturate))
    return cache


@pytest.mark.parametrize("saturate", ["final", None])
@pytest.mark.parametrize("layer", sorted(CONV_SHAPES))
def test_schedule_cache_conv_shapes_match_core(layer, saturate):
    w, x = _operands(*CONV_SHAPES[layer])
    _assert_cached_twice_matches_core(w, x, 8, saturate)


@pytest.mark.parametrize("saturate", ["final", None])
def test_schedule_cache_float64_coefficients_match_core(monkeypatch, saturate):
    """Force the float64 GEMM (otherwise reached only near D = 70000 at N=8)."""
    import repro.parallel.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_F32_EXACT_BOUND", 1)
    w, x = _operands(5, 12, 7, seed=3)
    cache = _assert_cached_twice_matches_core(w, x, 8, saturate)
    assert cache.layer_coeff(w, 8).dtype == np.float64


@pytest.mark.parametrize("saturate", ["final", None])
def test_schedule_cache_square_coefficients_match_core(saturate):
    """M == D*N: a transposed coefficient layout would pass every shape check."""
    w, x = _operands(16, 2, 11, seed=4)
    _assert_cached_twice_matches_core(w, x, 8, saturate)


def test_schedule_cache_warm_call_makes_no_transposing_copy():
    """A warm conv1 call allocates the N*D*P bit matrix once, not twice.

    The gather writes the (P, D*N) operand matrix directly; a layout
    that needs a transposing copy of it peaks above 2x its size.
    """
    import tracemalloc

    m, d, p = CONV_SHAPES["conv1"]
    w, x = _operands(m, d, p)
    cache = ScheduleCache()
    cache.sc_matmul(w, x, 8, 2)
    bit_matrix = 8 * d * p * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        cache.sc_matmul(w, x, 8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * bit_matrix, f"peak {peak / 1e6:.2f} MB"


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_warm_conv_call_makes_one_store_lookup():
    """A warm proposed-sc conv call takes the store's lock once.

    The store holds the layer's coefficients in the GEMM's layout, and
    they are the one entry the call looks up.
    """
    from repro.nn.layers.conv import Conv2D

    reset_worker_cache()
    try:
        rng = np.random.default_rng(0)
        conv = Conv2D(2, 4, kernel=3, engine=ProposedScEngine(n_bits=8), rng=rng)
        x = rng.normal(0.0, 0.5, size=(2, 2, 6, 6))
        cold = conv.forward(x)
        cache = get_worker_cache()
        cache._lock = lock = _CountingLock()
        hits, misses = cache.hits, cache.misses
        warm = conv.forward(x)
        assert lock.taken == 1
        assert (cache.hits, cache.misses) == (hits + 1, misses)
        assert np.array_equal(warm, cold)
    finally:
        reset_worker_cache()


# -- block independence of engine matmuls (hypothesis-driven) ------------


def blocked_matmul(engine, w, x, tile_size, batch_size, workers=0):
    """``engine.matmul(w, x)`` computed block by block over (rows, columns).

    Image sharding is bit-exact because an engine's output element never
    depends on another row or column of the product.  ``workers`` runs
    the blocks on that many threads, all calling the one engine.
    """
    m, p = w.shape[0], x.shape[1]
    tile, batch = tile_size or max(m, 1), batch_size or max(p, 1)
    blocks = [
        (slice(r, r + tile), slice(c, c + batch))
        for r in range(0, m, tile)
        for c in range(0, p, batch)
    ]
    out = np.zeros((m, p), dtype=np.float64)

    def run(block):
        rows, cols = block
        out[rows, cols] = engine.matmul(w[rows], x[:, cols])

    if workers:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    else:
        for block in blocks:
            run(block)
    return out


def proposed_reference(w, x, n_bits):
    """``ProposedScEngine.matmul`` computed by the reference kernel."""
    acc = sc_matmul(quantize_signed(w, n_bits), quantize_signed(x, n_bits), n_bits, 2, "final")
    return acc / (1 << (n_bits - 1))


@given(
    n_bits=st.sampled_from([4, 8]),
    batch_size=st.integers(0, 7),
    tile_size=st.integers(0, 5),
    fresh_cache=st.booleans(),
)
@settings(max_examples=25)
def test_sharded_matmul_matches_serial_inproc(n_bits, batch_size, tile_size, fresh_cache):
    rng = np.random.default_rng(n_bits * 100 + batch_size * 10 + tile_size)
    engine = ProposedScEngine(n_bits=n_bits)
    w = rng.normal(0.0, 0.3, size=(6, 14))
    x = rng.normal(0.0, 0.3, size=(14, 9))
    if fresh_cache:
        reset_worker_cache()
    expected = proposed_reference(w, x, n_bits)
    assert np.array_equal(expected, blocked_matmul(engine, w, x, tile_size, batch_size))


def serial_logits(net, x, batch):
    """Independent serial reference: plain chunked forward passes."""
    chunks = [net.forward(x[i : i + batch]) for i in range(0, x.shape[0], batch)]
    return np.concatenate(chunks) if chunks else np.zeros((0, 10))


@given(batch_size=st.integers(1, 6))
@settings(max_examples=10)
def test_network_logits_match_serial_chunking_inproc(batch_size):
    net = small_net(seed=5)
    x = np.random.default_rng(batch_size).normal(0.0, 0.5, size=(7, 1, 28, 28))
    expected = serial_logits(net, x, batch_size)
    got = predict_logits(net, x, ParallelConfig(workers=0, batch_size=batch_size))
    assert np.array_equal(expected, got)


def test_network_logits_whole_set_matches_forward():
    """batch_size=0 is one shard: bit-exact with ``net.forward`` itself."""
    net = small_net(seed=5)
    x = np.random.default_rng(0).normal(0.0, 0.5, size=(7, 1, 28, 28))
    got = predict_logits(net, x, ParallelConfig(workers=0, batch_size=0))
    assert np.array_equal(net.forward(x), got)


# -- thread shards --------------------------------------------------------


@pytest.mark.parametrize("workers", POOL_WORKERS)
def test_pool_network_parity_ragged(net, images, workers):
    expected = serial_logits(net, images, 4)
    got = predict_logits(net, images, ParallelConfig(workers=workers, batch_size=4))
    assert np.array_equal(expected, got)


def test_pool_predict_batched_matches_network_predict(net, images):
    serial = net.predict(images, batch=4)
    pooled = net.predict(images, parallelism=ParallelConfig(workers=2, batch_size=4))
    assert np.array_equal(serial, pooled)


def test_pool_empty_batch(net, images):
    empty = images[:0]
    logits = predict_logits(net, empty, ParallelConfig(workers=2, batch_size=4))
    assert logits.shape == (0, 10)
    assert net.predict(empty, parallelism=2).shape == (0,)
    assert net.predict(empty).shape == (0,)


@pytest.mark.parametrize("engine_factory", [ProposedScEngine, FixedPointEngine])
def test_pool_matmul_parity(engine_factory):
    """Two threads share one engine (and the process cache) block by block."""
    rng = np.random.default_rng(11)
    engine = engine_factory(n_bits=8)
    w = rng.normal(0.0, 0.3, size=(9, 20))
    x = rng.normal(0.0, 0.3, size=(20, 13))
    if engine_factory is ProposedScEngine:
        expected = proposed_reference(w, x, 8)
    else:
        expected = engine.matmul(w, x)
    assert np.array_equal(expected, blocked_matmul(engine, w, x, 4, 5, workers=2))


def test_pool_without_cache_is_still_exact(net, images):
    """Shard threads that start on an empty process cache fill it together."""
    expected = serial_logits(net, images, 4)
    reset_worker_cache()
    config = ParallelConfig(workers=2, batch_size=4)
    assert np.array_equal(expected, predict_logits(net, images, config))
    stats = get_worker_cache().stats()
    lookups = len(net.conv_layers) * len(group_shards([len(images)], 4))  # per conv per shard
    assert stats["hits"] + stats["misses"] == lookups


def test_cached_matmul_parity(rng):
    """ScheduleCache.sc_matmul == the uncached core, cold and warm."""
    cache = ScheduleCache()
    w = rng.integers(-128, 128, size=(6, 14))
    for _ in range(2):  # second pass exercises the layer memo
        x = rng.integers(-128, 128, size=(14, 9))
        expected = sc_matmul(w, x, 8, 2)
        assert np.array_equal(expected, cache.sc_matmul(w, x, 8, 2))


def test_schedule_cache_layers_bounded(rng):
    """The layer memo stays LRU-bounded at ``max_layers``; tables stay."""
    cache = ScheduleCache(max_layers=2)
    table = cache.sng_ud_table("lfsr", 4)
    for i in range(12):  # 12 layers: past the bound of 2
        w = rng.integers(-8, 8, size=(3, 5))
        w[0, 0] = i - 8  # distinct content each loop
        x = rng.integers(-8, 8, size=(5, 4))
        assert np.array_equal(sc_matmul(w, x, 4, 2, "final"), cache.sc_matmul(w, x, 4, 2))
    assert cache.stats()["layers"] == cache.max_layers
    assert cache.sng_ud_table("lfsr", 4) is table
    assert cache.stats()["misses"] == 13  # every layer once, the table once


def test_inproc_sharded_matmul_parity(rng):
    engine = ProposedScEngine(n_bits=8)
    w = rng.normal(0.0, 0.3, size=(6, 14))
    x = rng.normal(0.0, 0.3, size=(14, 9))
    reset_worker_cache()
    assert np.array_equal(proposed_reference(w, x, 8), blocked_matmul(engine, w, x, 4, 3))


def engine_state(net):
    """Every conv engine's attributes, copied."""
    return [dict(vars(conv.engine)) for conv in net.conv_layers]


def test_generator_override_leaves_engines_untouched_inproc(net, images):
    """The call's family travels as an argument: no engine attribute changes."""
    before = engine_state(net)
    predict_logits(net, images, ParallelConfig(workers=0, generator="halton"))
    assert engine_state(net) == before


def test_engine_pickle_drops_cache():
    """A pickled engine carries no cache: it draws from the process cache."""
    import pickle

    engine = ProposedScEngine(n_bits=8)
    w = np.full((2, 3), 0.25)
    x = np.full((3, 4), -0.5)
    expected = engine.matmul(w, x)
    clone = pickle.loads(pickle.dumps(engine))
    assert not any(isinstance(v, ScheduleCache) for v in vars(clone).values())
    assert clone.n_bits == 8
    assert np.array_equal(clone.matmul(w, x), expected)


def test_serial_path_leaves_engine_cache_untouched(net, images):
    before = engine_state(net)
    predict_logits(net, images, ParallelConfig(workers=0, batch_size=4))
    assert engine_state(net) == before


# -- larger fleet (nightly) ----------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("n_bits", [4, 8])
@pytest.mark.parametrize("workers", POOL_WORKERS)
def test_pool_network_parity_large(n_bits, workers):
    net = build_mnist_net(seed=9, c1=4, c2=6, fc=32)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=n_bits)
    x = np.random.default_rng(n_bits).normal(0.0, 0.5, size=(33, 1, 28, 28))
    expected = serial_logits(net, x, 8)
    got = predict_logits(net, x, ParallelConfig(workers=workers, batch_size=8))
    assert np.array_equal(expected, got)


@pytest.mark.slow
@pytest.mark.parametrize("workers", POOL_WORKERS)
def test_pool_matmul_parity_large(workers):
    rng = np.random.default_rng(21)
    engine = ProposedScEngine(n_bits=8)
    w = rng.normal(0.0, 0.3, size=(48, 120))
    x = rng.normal(0.0, 0.3, size=(120, 96))
    expected = proposed_reference(w, x, 8)
    assert np.array_equal(expected, blocked_matmul(engine, w, x, 13, 17, workers=workers))
