"""Compiled schedule artifacts: format, the store reading them, thread-shard parity.

The contract under test: the precompiled-artifact path must be
*bit-exact* against the on-demand ScheduleCache path across worker
counts, the artifact format must reject what it cannot read with typed
errors (never crash, never compute on garbage), an engine that
serves from a warm artifact must do zero schedule builds, and every
array the store hands out, built or read from an artifact, is read-only.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.errors import ArtifactVersionError
from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import (
    CompiledSchedules,
    ParallelConfig,
    ScheduleArtifactError,
    ScheduleCache,
    ScheduleEntry,
    compile_network_schedules,
    ensure_compiled,
    predict_logits,
    predict_logits_grouped,
    serialize_schedules,
)
from repro.parallel.cache import (
    attach_compiled,
    detach_compiled,
    get_worker_cache,
    reset_worker_cache,
)

POOL_WORKERS = (1, 2, 4)


@pytest.fixture(autouse=True)
def _clean_compiled():
    """No artifact (or cache warmth) leaks into or out of any test."""
    detach_compiled()
    reset_worker_cache()
    yield
    detach_compiled()
    reset_worker_cache()


def small_net(seed: int = 3, engine: str = "proposed-sc", n_bits: int = 8, **kwargs):
    net = build_mnist_net(seed=seed, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, engine, ranges, n_bits=n_bits, **kwargs)
    return net


def compiled_for(net) -> CompiledSchedules:
    entries, meta = compile_network_schedules(net)
    return CompiledSchedules(serialize_schedules(entries, meta))


@pytest.fixture
def images():
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.5, size=(6, 1, 28, 28))


# -- artifact format ------------------------------------------------------


class TestFormat:
    def test_roundtrip_preserves_arrays_and_meta(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-100, 100, size=(3, 5)).astype(np.int64)
        b = rng.random((4,)).astype(np.float32)
        data = serialize_schedules(
            [
                ScheduleEntry("k/a", "ud-table", {"n_bits": 3}, a),
                ScheduleEntry("k/b", "bit-table", {}, b),
            ],
            meta={"engines": ["x"]},
        )
        compiled = CompiledSchedules(data)
        compiled.validate()
        assert np.array_equal(compiled.get("k/a"), a)
        assert np.array_equal(compiled.get("k/b"), b)
        assert compiled.meta == {"engines": ["x"]}
        assert set(compiled.keys()) == {"k/a", "k/b"}
        assert "k/a" in compiled and "missing" not in compiled
        assert compiled.get("missing") is None

    def test_entries_are_read_only_views(self):
        data = serialize_schedules(
            [ScheduleEntry("k", "select", {}, np.arange(6, dtype=np.int64))]
        )
        arr = CompiledSchedules(data).get("k")
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 99

    def test_duplicate_keys_deduplicated(self):
        arr = np.arange(4, dtype=np.int64)
        data = serialize_schedules(
            [ScheduleEntry("k", "select", {}, arr), ScheduleEntry("k", "select", {}, arr)]
        )
        assert len(CompiledSchedules(data)) == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(ScheduleArtifactError, match="magic"):
            CompiledSchedules(b"NOTSCHED" + b"\x00" * 64)

    def test_truncation_rejected(self):
        data = serialize_schedules(
            [ScheduleEntry("k", "select", {}, np.arange(100, dtype=np.int64))]
        )
        with pytest.raises(ScheduleArtifactError):
            CompiledSchedules(data[: len(data) // 2])

    def test_future_version_raises_typed_error(self):
        """A bumped format version must be the *typed* rejection."""
        data = serialize_schedules(
            [ScheduleEntry("k", "select", {}, np.arange(4, dtype=np.int64))]
        )
        assert data.count(b'"version":1') == 1
        bumped = data.replace(b'"version":1', b'"version":2', 1)
        with pytest.raises(ArtifactVersionError, match="version"):
            CompiledSchedules(bumped)
        # and it is NOT the generic corruption error: callers distinguish
        assert not issubclass(ArtifactVersionError, ScheduleArtifactError)

    def test_payload_bitflip_caught_by_crc(self):
        data = bytearray(
            serialize_schedules(
                [ScheduleEntry("k", "select", {}, np.arange(4, dtype=np.int64))]
            )
        )
        data[-1] ^= 0xFF
        compiled = CompiledSchedules(bytes(data))  # header parses fine
        with pytest.raises(ScheduleArtifactError, match="CRC"):
            compiled.validate()

    def test_describe_summarizes(self):
        net = small_net()
        compiled = compiled_for(net)
        d = compiled.describe()
        assert d["version"] == 1
        assert d["entries"] == len(compiled)
        assert d["kinds"]["layer-coeff"] == 2
        assert d["nbytes"] == compiled.nbytes


# -- compiling a network --------------------------------------------------


class TestCompileNetwork:
    def test_manifest_is_covered_by_compiled_artifact(self):
        from repro.parallel import schedule_manifest

        net = small_net()
        needed, meta = schedule_manifest(net)
        compiled = compiled_for(net)
        assert needed, "manifest of an engine-backed net must not be empty"
        assert all(k in compiled for k in needed)
        assert len(meta["layers"]) == 2

    def test_lfsr_network_compiles_one_table(self):
        """The default pair is the registry's ``lfsr`` family: one table, no orbits."""
        from repro.keys import sng_ud_table_key
        from repro.sc.generators import generator_fingerprint

        key = sng_ud_table_key(5, generator_fingerprint("lfsr", 5))
        for generator in (None, "lfsr"):
            compiled = compiled_for(small_net(engine="lfsr-sc", n_bits=5, generator=generator))
            assert compiled.describe()["kinds"] == {"ud-table": 1}
            assert compiled.keys() == [key]

    def test_compiled_ud_table_matches_on_demand_build(self):
        from repro.sc.multipliers import lfsr_ud_table, select_low_bias_seeds

        net = small_net(engine="lfsr-sc", n_bits=5)
        cache = ScheduleCache(compiled=compiled_for(net))
        table = cache.sng_ud_table("lfsr", 5)
        assert np.array_equal(table, lfsr_ud_table(5, *select_low_bias_seeds(5)))
        stats = cache.stats()
        assert stats["rebuilds"] == 0
        assert stats["compiled_hits"] == 1


# -- ScheduleCache served from an artifact ---------------------------------


class TestThinView:
    @pytest.mark.parametrize("engine", ["proposed-sc", "lfsr-sc"])
    def test_compiled_path_serves_with_zero_rebuilds(self, images, engine):
        """A boot from a compiled artifact builds nothing.

        Each leg gets a fresh net: ``LfsrScEngine`` memoizes its weight
        rows on the engine, so a reused net would never ask the cache
        for the table again.
        """
        cfg = ParallelConfig(workers=0, batch_size=3)

        reset_worker_cache()
        on_demand = predict_logits(small_net(engine=engine), images, cfg)
        assert get_worker_cache().stats()["rebuilds"] > 0

        attach_compiled(compiled_for(small_net(engine=engine)))
        reset_worker_cache()
        from_artifact = predict_logits(small_net(engine=engine), images, cfg)
        stats = get_worker_cache().stats()
        assert stats["rebuilds"] == 0
        assert stats["compiled_hits"] > 0
        assert np.array_equal(from_artifact, on_demand)

    def test_artifact_miss_degrades_to_build(self, images):
        """An artifact compiled for a *different* net is a miss, not a
        wrong answer: lookups fall through to the on-demand build."""
        net = small_net(seed=3)
        other = small_net(seed=11)
        reset_worker_cache()
        expected = predict_logits(net, images, ParallelConfig(workers=0, batch_size=3))

        attach_compiled(compiled_for(other))
        reset_worker_cache()
        got = predict_logits(net, images, ParallelConfig(workers=0, batch_size=3))
        assert get_worker_cache().stats()["rebuilds"] > 0
        assert np.array_equal(got, expected)


# -- counters -------------------------------------------------------------


def test_counters_count_each_lookup_and_build_once():
    """One hit or miss per layer and per table; a build or artifact read per entry.

    The serving metrics (``hook``) and perfbench's ``cache.*`` figures
    read these counters.  The layer's constant, the derived layouts and
    the bit table an engine never asks for directly count no hit or miss.
    """
    net = small_net(n_bits=5)
    conv = net.conv_layers[0]
    w = conv.engine.quantize_weights(conv.weight.value.reshape(conv.out_channels, -1))
    x = np.zeros((w.shape[1], 3), dtype=np.int64)

    def counts(cache):
        for _ in range(2):
            cache.sc_matmul(w, x, 5)
            cache.sng_ud_table("lfsr", 5)
        stats = cache.stats()
        return [stats[k] for k in ("hits", "misses", "rebuilds", "compiled_hits")]

    # built: the layer's coefficients, the bit table, the up/down table
    assert counts(ScheduleCache()) == [2, 2, 3, 0]
    # read from the artifact on each lookup: the coefficients twice, the bit table once
    assert counts(ScheduleCache(compiled=compiled_for(net))) == [3, 1, 1, 3]


# -- read-only entries ----------------------------------------------------


class TestReadOnlyEntries:
    """Every array the store hands out is read-only, however it was served."""

    def test_entries_are_read_only_cold_warm_and_from_an_artifact(self):
        proposed = small_net(n_bits=5)
        conv = proposed.conv_layers[0]
        w = conv.engine.quantize_weights(conv.weight.value.reshape(conv.out_channels, -1))
        nets = (
            proposed,
            small_net(engine="lfsr-sc", n_bits=5),
            small_net(engine="lfsr-sc", n_bits=5, generator="halton"),
        )
        artifact = CompiledSchedules(
            serialize_schedules([e for net in nets for e in compile_network_schedules(net)[0]])
        )

        def arrays(cache):
            return [
                cache.bit_table(5),
                cache.sng_ud_table("lfsr", 5),
                cache.sng_ud_table("halton", 5),
                *cache.layer_coeff(w, 5),
            ]

        cache = ScheduleCache()
        served = {"cold": arrays(cache), "warm": arrays(cache)}
        from_artifact = ScheduleCache(compiled=artifact)
        served["artifact"] = arrays(from_artifact)
        assert from_artifact.stats()["rebuilds"] == 0
        for how, got in served.items():
            assert not any(a.flags.writeable for a in got), how

    def test_write_through_an_engine_table_raises(self):
        """Writing into a served table must not change later answers."""
        from repro.nn.engines import LfsrScEngine
        from repro.sc.generators import generator_ud_table

        expected = generator_ud_table("lfsr", 5)
        with pytest.raises(ValueError):
            LfsrScEngine(n_bits=5).ud_table[...] = 0
        assert np.array_equal(get_worker_cache().sng_ud_table("lfsr", 5), expected)


# -- thread-shard parity ---------------------------------------------------


class TestPoolParity:
    """Shard threads all serve from the one attached artifact."""

    @pytest.mark.parametrize("workers", POOL_WORKERS)
    def test_artifact_path_bit_exact_across_worker_counts(self, workers, images):
        net = small_net()
        reset_worker_cache()
        serial = predict_logits(net, images, ParallelConfig(workers=0, batch_size=2))

        attach_compiled(compiled_for(net))
        reset_worker_cache()
        out = predict_logits(net, images, ParallelConfig(workers=workers, batch_size=2))
        assert np.array_equal(out, serial)
        assert get_worker_cache().stats()["rebuilds"] == 0

    def test_grouped_dispatch_bit_exact_with_artifact(self, images):
        net = small_net()
        reset_worker_cache()
        cfg0 = ParallelConfig(workers=0, batch_size=2)
        expected = [predict_logits(net, images[:2], cfg0), predict_logits(net, images[2:], cfg0)]

        attach_compiled(compiled_for(net))
        reset_worker_cache()
        got = predict_logits_grouped(
            net, [images[:2], images[2:]], ParallelConfig(workers=2, batch_size=2)
        )
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        stats = get_worker_cache().stats()
        assert stats["rebuilds"] == 0
        assert stats["compiled_hits"] > 0


# -- ensure_compiled (store flow) -----------------------------------------


class TestEnsureCompiled:
    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        from repro.experiments.artifacts import ArtifactStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return ArtifactStore(tmp_path)

    def test_compiles_once_then_hits(self, store, caplog):
        net = small_net()
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            first = ensure_compiled(net, store, "sched-test")
            second = ensure_compiled(net, store, "sched-test")
        assert store.blob_path("sched-test").exists()
        assert caplog.text.count("event=compile") == 1
        assert "event=hit" in caplog.text
        assert set(first.keys()) == set(second.keys())

    def test_garbage_blob_recompiles_not_crashes(self, store, caplog):
        net = small_net()
        store.save_blob("sched-test", b"RPSCHED\x00 but then garbage")
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            compiled = ensure_compiled(net, store, "sched-test")
        assert "event=corrupt" in caplog.text
        assert len(compiled) > 0
        compiled.validate()

    def test_future_version_blob_recompiles_not_crashes(self, store, caplog):
        net = small_net()
        data = ensure_compiled(net, store, "sched-test").blob.tobytes()
        store.save_blob("sched-test", data.replace(b'"version":1', b'"version":2', 1))
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            compiled = ensure_compiled(net, store, "sched-test")
        assert "event=stale" in caplog.text
        assert compiled.version == 1  # rewritten at the supported version
        compiled.validate()

    def test_sidecar_mismatch_quarantines_then_recompiles(self, store):
        net = small_net()
        ensure_compiled(net, store, "sched-test")
        path = store.blob_path("sched-test")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip under the sidecar's nose
        path.write_bytes(bytes(data))
        compiled = ensure_compiled(net, store, "sched-test")
        compiled.validate()
        assert list(store.root.glob("*.corrupt"))

    def test_pre_registry_lfsr_artifact_is_recompiled(self, store, caplog, images):
        """A default lfsr-sc artifact written before the ``lfsr`` family
        keyed the default table is stale: recompiled, never trusted.

        That format held the shared-LFSR pair's table under a key of its
        seeds and taps, beside both LFSR state orbits; its bytes are the
        ones the ``.sched`` golden pinned for this net.
        """
        import hashlib

        from repro.keys import content_key, sng_ud_table_key
        from repro.sc.generators import generator_fingerprint
        from repro.sc.lfsr import _ALT_TAPS, MAXIMAL_TAPS, Lfsr
        from repro.sc.multipliers import lfsr_ud_table, select_low_bias_seeds

        n = 5
        seed_w, seed_x = select_low_bias_seeds(n)
        taps = (MAXIMAL_TAPS[n], _ALT_TAPS[n])
        old = [
            ScheduleEntry(
                content_key("ud-table", n, seed_w, seed_x, *taps), "ud-table",
                {"n_bits": n, "seed_w": seed_w, "seed_x": seed_x},
                lfsr_ud_table(n, seed_w, seed_x),
            ),
            *(
                ScheduleEntry(
                    content_key("lfsr-orbit", n, t), "orbit", {"n_bits": n, "taps": list(t)},
                    Lfsr(n, taps=t).sequence((1 << n) - 1),
                )
                for t in taps
            ),
        ]
        data = serialize_schedules(old, {"engines": ["lfsr-sc"], "layers": []})
        assert hashlib.sha256(data).hexdigest() == (
            "266367e73b0b959310c6eac370c649691dd67c13ca8cad160a9f99adfb90141d"
        )
        store.save_blob("sched-test", data)

        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            compiled = ensure_compiled(small_net(engine="lfsr-sc", n_bits=n), store, "sched-test")
        assert caplog.text.count("event=stale") == 1
        assert caplog.text.count("event=compile") == 1
        rewritten = CompiledSchedules(store.load_blob("sched-test"))
        for artifact in (compiled, rewritten):
            assert artifact.describe()["kinds"] == {"ud-table": 1}
            assert artifact.keys() == [sng_ud_table_key(n, generator_fingerprint("lfsr", n))]

        cfg = ParallelConfig(workers=0, batch_size=3)
        on_demand = predict_logits(small_net(engine="lfsr-sc", n_bits=n), images, cfg)
        attach_compiled(compiled)
        reset_worker_cache()
        got = predict_logits(small_net(engine="lfsr-sc", n_bits=n), images, cfg)
        assert get_worker_cache().stats()["rebuilds"] == 0
        assert np.array_equal(got, on_demand)

    def test_stale_manifest_triggers_recompile(self, store, caplog):
        """An artifact for yesterday's weights is stale, not 'good enough'."""
        from repro.parallel import schedule_manifest

        old = small_net(seed=3)
        ensure_compiled(old, store, "sched-test")
        new = small_net(seed=11)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            compiled = ensure_compiled(new, store, "sched-test")
        assert "event=stale" in caplog.text
        needed, _ = schedule_manifest(new)
        assert all(k in compiled for k in needed)
