"""Grouped scheduling parity: coalescing requests never changes their bits.

``predict_logits_grouped`` is the serving micro-batcher's execution
primitive; its contract is

    predict_logits_grouped(net, [a, b], cfg)
        == [predict_logits(net, a, cfg), predict_logits(net, b, cfg)]

bit-exactly for ANY coalescing — shards never span request boundaries
and each request is chunked from its own offset 0 (BLAS summation order
in the dense head depends on operand shape, so chunk geometry is part
of the contract; see ``repro.parallel.engine``).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import (
    BatchInferenceEngine,
    ParallelConfig,
    group_shards,
    predict_logits,
    predict_logits_grouped,
)


@pytest.fixture(scope="module")
def net():
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=8)
    return net


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(23)
    return rng.normal(0.0, 0.5, size=(14, 1, 28, 28))


# -- the shard plan -------------------------------------------------------


def test_group_shards_respect_request_boundaries():
    shards = group_shards([5, 3], batch_size=2)
    spans = [s.image_slice for s in shards]
    assert [(sl.start, sl.stop) for sl in spans] == [
        (0, 2), (2, 4), (4, 5),  # request 0 chunked from its own offset 0
        (5, 7), (7, 8),          # request 1 restarts the chunk grid
    ]
    assert [s.index for s in shards] == list(range(len(shards)))


def test_group_shards_zero_batch_means_whole_request():
    spans = [s.image_slice for s in group_shards([4, 2], batch_size=0)]
    assert [(sl.start, sl.stop) for sl in spans] == [(0, 4), (4, 6)]


def test_group_shards_skip_empty_requests():
    spans = [s.image_slice for s in group_shards([2, 0, 1], batch_size=8)]
    assert [(sl.start, sl.stop) for sl in spans] == [(0, 2), (2, 3)]


def test_group_shards_validate_inputs():
    with pytest.raises(ValueError):
        group_shards([3], batch_size=-1)
    with pytest.raises(ValueError):
        group_shards([-2], batch_size=4)


@given(
    counts=st.lists(st.integers(0, 9), min_size=0, max_size=6),
    batch_size=st.integers(0, 5),
)
def test_group_shards_partition_exactly(counts, batch_size):
    shards = group_shards(counts, batch_size)
    covered = np.zeros(sum(counts), dtype=int)
    for s in shards:
        covered[s.image_slice] += 1
        width = s.image_slice.stop - s.image_slice.start
        assert 0 < width <= (batch_size or max(counts, default=1) or 1)
    assert np.all(covered == 1)  # every image exactly once


# -- bit-exact parity -----------------------------------------------------


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    batch_size=st.integers(1, 5),
)
@settings(max_examples=15, deadline=None)
def test_grouped_equals_per_request_inproc(net, images, sizes, batch_size):
    config = ParallelConfig(workers=0, batch_size=batch_size)
    offsets = np.cumsum([0] + sizes)
    xs = [images[lo % 9 : lo % 9 + n] for lo, n in zip(offsets, sizes)]
    grouped = predict_logits_grouped(net, xs, config)
    assert len(grouped) == len(xs)
    for x, got in zip(xs, grouped):
        assert np.array_equal(got, predict_logits(net, x, config))


def test_grouped_empty_and_zero_size_requests(net, images):
    config = ParallelConfig(workers=0, batch_size=4)
    assert predict_logits_grouped(net, [], config) == []
    grouped = predict_logits_grouped(net, [images[:0], images[:2]], config)
    assert grouped[0].shape == (0, 10)
    assert np.array_equal(grouped[1], predict_logits(net, images[:2], config))


def test_grouped_rejects_mismatched_image_shapes(net, images):
    with pytest.raises(ValueError, match="disagree"):
        predict_logits_grouped(
            net, [images[:1], images[:1, :, :14, :14]], ParallelConfig(workers=0)
        )


def test_engine_logits_grouped_matches_function(net, images):
    engine = BatchInferenceEngine(net, ParallelConfig(workers=0, batch_size=4))
    xs = [images[:3], images[3:4], images[4:9]]
    via_engine = engine.logits_grouped(xs)
    direct = predict_logits_grouped(net, xs, engine.config)
    for a, b in zip(via_engine, direct):
        assert np.array_equal(a, b)


def test_engine_hooks_observe_grouped_dispatch(net, images):
    events = []
    engine = BatchInferenceEngine(net, ParallelConfig(workers=0, batch_size=4))
    engine.add_hook(lambda n, s, w: events.append((n, w)))
    engine.logits_grouped([images[:2], images[2:5]])
    assert events == [(5, 0)]


@pytest.mark.parametrize("workers", (1, 2))
def test_grouped_parity_on_thread_shards(net, images, workers):
    config = ParallelConfig(workers=workers, batch_size=3)
    xs = [images[:4], images[4:5], images[5:12]]
    grouped = predict_logits_grouped(net, xs, config)
    serial = [predict_logits(net, x, ParallelConfig(workers=0, batch_size=3)) for x in xs]
    for got, want in zip(grouped, serial):
        assert np.array_equal(got, want)


def _check_overlapping_groups(images, workers):
    """Two tagged groups on one engine overlap and keep their generator.

    The server runs one group at a time, but an engine takes calls
    from any caller, so two may overlap.  The net's forward is wrapped
    so that the ``mip`` group waits inside it (for at most 5 s) until
    the ``halton`` group reaches its own forward.  The groups send
    different images, which is how the wrapper tells them apart on any
    shard thread.  ``halton`` must
    enter while ``mip`` waits: a call carries its family as an
    argument, so nothing serializes calls on one engine.  Each answer
    must equal its serial value, and every conv engine must still be on
    its configured generator.
    """
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    attach_engines(net, "lfsr-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=6)
    engine = BatchInferenceEngine(net, ParallelConfig(workers=workers, batch_size=4))
    groups = {"mip": [images[:3], images[3:5]], "halton": [images[5:8], images[8:10]]}
    serial = {tag: engine.logits_grouped(xs, generator=tag) for tag, xs in groups.items()}
    owner = {x[0].tobytes(): tag for tag, xs in groups.items() for x in xs}

    forward = net.forward
    inside = {tag: threading.Event() for tag in groups}
    overlapped = []

    def overlapping_forward(x, **kwargs):
        tag = owner[x[0].tobytes()]
        if not inside[tag].is_set():
            inside[tag].set()
            if tag == "mip":
                overlapped.append(inside["halton"].wait(timeout=5.0))
        return forward(x, **kwargs)

    net.forward = overlapping_forward
    served = {}

    def run(tag):
        served[tag] = engine.logits_grouped(groups[tag], generator=tag)

    threads = {tag: threading.Thread(target=run, args=(tag,)) for tag in groups}
    threads["mip"].start()
    assert inside["mip"].wait(timeout=30.0)
    threads["halton"].start()
    for thread in threads.values():
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert overlapped == [True], "halton did not enter net.forward while mip waited"
    for tag in groups:
        assert len(served[tag]) == len(serial[tag])
        for got, want in zip(served[tag], serial[tag]):
            assert np.array_equal(got, want), f"{tag} group ran under another generator"
    assert [conv.engine.generator for conv in net.conv_layers] == [None, None]


def test_overlapping_groups_on_one_engine_keep_their_generator(images):
    _check_overlapping_groups(images, workers=0)


def test_overlapping_thread_shard_groups_keep_their_generator(images):
    _check_overlapping_groups(images, workers=2)


def _check_many_threads_on_one_engine(images, workers):
    """Six threads, more than the cores, share one engine.

    Each sends four tagged groups, cycling through the SNG families,
    with a short switch interval.  Every answer must equal the serial
    answer of its own family, and the engines must end untagged.
    """
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    attach_engines(net, "lfsr-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=5)
    engine = BatchInferenceEngine(net, ParallelConfig(workers=workers, batch_size=2))
    tags = (None, "lfsr", "halton", "ed", "mip", "parallel")
    xs = [images[:2], images[2:3]]
    serial = {tag: engine.logits_grouped(xs, generator=tag) for tag in tags}
    mismatches, finished = [], []

    def run(offset):
        for k in range(4):
            tag = tags[(offset + k) % len(tags)]
            for got, want in zip(engine.logits_grouped(xs, generator=tag), serial[tag]):
                if not np.array_equal(got, want):
                    mismatches.append(tag)
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == list(range(6))
    assert mismatches == []
    assert [conv.engine.generator for conv in net.conv_layers] == [None, None]


def test_many_threads_on_one_engine_stay_serial_exact(images):
    _check_many_threads_on_one_engine(images, workers=0)


def test_many_threads_on_a_thread_shard_engine_stay_serial_exact(images):
    _check_many_threads_on_one_engine(images, workers=2)


@pytest.mark.parametrize("workers", (0, 2, 3))
def test_a_mixed_family_group_equals_one_call_per_request(images, workers):
    """One group whose requests carry every SNG family, and the default.

    Each answer must equal, byte for byte, a call on that request alone
    under its own family.  The ``mip`` request holds five images at a
    shard size of two, so it spans three shards.  Every family must move
    its request's answer off the default one, or a group run under one
    family for all its requests could pass.
    """
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    attach_engines(net, "lfsr-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=5)
    engine = BatchInferenceEngine(net, ParallelConfig(workers=workers, batch_size=2))
    alone = BatchInferenceEngine(net, ParallelConfig(workers=0, batch_size=2))
    families = [None, "halton", "mip", "ed", "lfsr", "parallel", "halton"]
    xs = [images[:1], images[1:3], images[3:8], images[8:9], images[9:11],
          images[11:13], images[13:14]]
    grouped = engine.logits_grouped(xs, generator=families)
    assert len(grouped) == len(xs)
    for x, family, got in zip(xs, families, grouped):
        want = alone.logits_grouped([x], generator=family)[0]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"request under {family} diverged"
        if family not in (None, "lfsr"):
            assert not np.array_equal(got, alone.logits_grouped([x])[0])


def test_a_family_list_must_name_one_family_per_request(net, images):
    with pytest.raises(ValueError, match="2 generators for 3 requests"):
        predict_logits_grouped(
            net, [images[:1]] * 3, ParallelConfig(workers=0), generators=["mip", None]
        )
    with pytest.raises(ValueError, match="unknown generator"):
        predict_logits_grouped(net, [images[:1]] * 2, generators=[None, "mersenne"])
