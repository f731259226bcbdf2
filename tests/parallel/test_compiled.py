"""Compiled schedule artifacts: the store holding them, reading them, thread-shard parity.

The contract under test: the precompiled-artifact path must be
*bit-exact* against the on-demand ScheduleCache path across worker
counts, an artifact the store cannot vouch for is quarantined and
recompiled (never a crash, never computed on), an engine that serves
from a warm artifact must do zero schedule builds, and every array the
store hands out, built or read from an artifact, is read-only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import zlib

import numpy as np
import pytest

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import (
    CompiledSchedules,
    ParallelConfig,
    ScheduleCache,
    compile_network_schedules,
    ensure_compiled,
    predict_logits,
    predict_logits_grouped,
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
    return CompiledSchedules(compile_network_schedules(net))


@pytest.fixture
def store(tmp_path, monkeypatch):
    from repro.experiments.artifacts import ArtifactStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ArtifactStore(tmp_path)


@pytest.fixture
def images():
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.5, size=(6, 1, 28, 28))


def _assert_heals(store, caplog, net) -> None:
    """The damaged artifact costs one quarantine and one compile; the next call hits."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="repro.artifacts"):
        compiled = ensure_compiled(net, store, "sched-test")
        again = ensure_compiled(net, store, "sched-test")
    assert caplog.text.count("event=quarantine") == 1
    assert caplog.text.count("event=compile") == 1
    assert "event=hit key=sched-test kind=schedule-compiled" in caplog.text
    assert [p.name for p in store.root.glob("*.corrupt")] == ["sched-test.npz.corrupt"]
    assert again.keys() == compiled.keys() == list(compile_network_schedules(net))


# -- the artifact view and its store entry ---------------------------------


class TestFormat:
    def test_roundtrip_preserves_arrays_and_meta(self, store):
        """An artifact loaded back from the store holds the compiled bytes, key
        for key, in an ``.npz`` carrying the store's metadata record."""
        from repro.experiments.artifacts import META_KEY, STORE_VERSION

        for net in (small_net(n_bits=5), small_net(engine="lfsr-sc", n_bits=5)):
            entries = compile_network_schedules(net)
            ensure_compiled(net, store, "sched-test")
            loaded = ensure_compiled(net, store, "sched-test")
            assert loaded.keys() == list(entries)
            for key, array in entries.items():
                got = loaded.get(key)
                assert (got.dtype, got.shape) == (array.dtype, array.shape)
                assert got.tobytes() == array.tobytes()
            with np.load(store.checkpoint_path("sched-test")) as npz:
                meta = json.loads(npz[META_KEY].tobytes())
            assert meta == {
                "store_version": STORE_VERSION, "fingerprint": "", "params": len(entries)
            }
            store.clear()

    def test_entries_are_read_only_views(self):
        array = np.arange(6, dtype=np.int64)
        entry = CompiledSchedules({"k": array}).get("k")
        with pytest.raises(ValueError):
            entry[0] = 99
        assert array.flags.writeable  # the view is frozen, not the caller's array
        assert CompiledSchedules({"k": array}).get("missing") is None

    def test_duplicate_keys_deduplicated(self):
        """The walk names the bit table once per layer; the artifact holds it once."""
        from repro.keys import bit_table_key
        from repro.parallel import schedule_manifest

        net = small_net()
        assert schedule_manifest(net).count(bit_table_key(8)) == 2
        entries = compile_network_schedules(net)
        assert list(entries).count(bit_table_key(8)) == 1
        assert len(entries) == 5

    def test_truncation_rejected(self, store, caplog):
        net = small_net()
        ensure_compiled(net, store, "sched-test")
        path = store.checkpoint_path("sched-test")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.check_checkpoint("sched-test")[0] == "corrupt"
        _assert_heals(store, caplog, net)

    def test_payload_bitflip_caught_by_crc(self, store, caplog):
        """With no sidecar to catch it, a flipped entry byte fails its zip CRC-32."""
        net = small_net()
        entries = compile_network_schedules(net)
        ensure_compiled(net, store, "sched-test")
        path = store.checkpoint_path("sched-test")
        data = bytearray(path.read_bytes())
        data[data.find(next(iter(entries.values())).tobytes()) + 7] ^= 0xFF
        path.write_bytes(bytes(data))
        path.with_name(path.name + ".sha256").unlink()
        assert store.check_checkpoint("sched-test")[0] == "ok"  # the zip still parses
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            compiled = ensure_compiled(net, store, "sched-test")
        assert "Bad CRC-32" in caplog.text
        assert caplog.text.count("event=compile") == 1
        assert compiled.get(next(iter(entries))).tobytes() == next(iter(entries.values())).tobytes()

    def test_describe_summarizes(self):
        net = small_net()
        compiled = compiled_for(net)
        d = compiled.describe()
        assert d["entries"] == len(compiled) == 5
        assert d["kinds"] == {"bit-table": 1, "layer-coeff": 2, "layer-const": 2}
        assert d["nbytes"] == compiled.nbytes == sum(
            a.nbytes for a in compile_network_schedules(net).values()
        )


# -- compiling a network --------------------------------------------------


class TestCompileNetwork:
    def test_manifest_is_covered_by_compiled_artifact(self):
        from repro.parallel import schedule_manifest

        net = small_net()
        needed = schedule_manifest(net)
        compiled = compiled_for(net)
        assert needed, "manifest of an engine-backed net must not be empty"
        assert all(k in compiled for k in needed)
        assert sum(k.endswith("/coeff") for k in needed) == 2

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

    def test_entries_are_read_only_cold_warm_and_from_an_artifact(self, store):
        proposed = small_net(n_bits=5)
        conv = proposed.conv_layers[0]
        w = conv.engine.quantize_weights(conv.weight.value.reshape(conv.out_channels, -1))
        nets = (
            proposed,
            small_net(engine="lfsr-sc", n_bits=5),
            small_net(engine="lfsr-sc", n_bits=5, generator="halton"),
        )
        entries = {k: a for net in nets for k, a in compile_network_schedules(net).items()}
        artifact = CompiledSchedules(entries)
        # the same entries loaded back from a store: an ensure_compiled hit for every net
        store.save_checkpoint("sched-test", entries)
        loaded = [ensure_compiled(net, store, "sched-test") for net in nets]
        assert all(hit.keys() == list(entries) for hit in loaded)
        for key in entries:
            with pytest.raises(ValueError):
                loaded[0].get(key)[...] = 0

        def arrays(cache):
            return [
                cache.bit_table(5),
                cache.sng_ud_table("lfsr", 5),
                cache.sng_ud_table("halton", 5),
                *cache.layer_coeff(w, 5),
            ]

        cache = ScheduleCache()
        served = {"cold": arrays(cache), "warm": arrays(cache)}
        for how, compiled in (("artifact", artifact), ("store", loaded[0])):
            from_artifact = ScheduleCache(compiled=compiled)
            served[how] = arrays(from_artifact)
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


def _rpsched(key: str, array: np.ndarray, params: dict, meta: dict) -> bytes:
    """One ``.sched`` entry in the framing schedule artifacts had before they were ``.npz``."""
    payload = array.tobytes()
    payload += b"\0" * (-len(payload) % 64)
    record = {
        "key": key, "kind": "ud-table", "params": params, "dtype": array.dtype.str,
        "shape": list(array.shape), "offset": 0, "nbytes": array.nbytes,
    }
    header = {
        "format": "repro-schedule", "version": 1, "meta": meta, "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload), "entries": [record],
    }
    head = json.dumps(header, separators=(",", ":")).encode()
    head = b"RPSCHED\0" + struct.pack("<Q", len(head)) + head
    return head + b"\0" * (-len(head) % 64) + payload


class TestEnsureCompiled:
    def test_compiles_once_then_hits(self, store, caplog):
        net = small_net()
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            first = ensure_compiled(net, store, "sched-test")
            second = ensure_compiled(net, store, "sched-test")
        assert store.checkpoint_path("sched-test").exists()
        assert caplog.text.count("event=compile") == 1
        assert "event=hit" in caplog.text
        assert set(first.keys()) == set(second.keys())

    def test_garbage_blob_recompiles_not_crashes(self, store, caplog):
        net = small_net()
        ensure_compiled(net, store, "sched-test")
        store.checkpoint_path("sched-test").write_bytes(b"PK\x03\x04 but then garbage")
        _assert_heals(store, caplog, net)

    def test_sidecar_mismatch_quarantines_then_recompiles(self, store, caplog):
        net = small_net()
        ensure_compiled(net, store, "sched-test")
        sidecar = store.root / "sched-test.npz.sha256"
        sidecar.write_text("0" * 64 + "  sched-test.npz\n")
        _assert_heals(store, caplog, net)

    def test_future_version_blob_recompiles_not_crashes(self, store, caplog, monkeypatch):
        """An artifact from another store version is stale: quarantined and recompiled."""
        from repro.experiments import artifacts

        net = small_net()
        with monkeypatch.context() as m:
            m.setattr(artifacts, "STORE_VERSION", artifacts.STORE_VERSION + 1)
            ensure_compiled(net, store, "sched-test")
        _assert_heals(store, caplog, net)
        assert "stale: store version" in caplog.text

    def test_files_from_before_npz_artifacts_are_ignored(self, store, caplog, images, capsys):
        """A store that holds only ``.sched`` files heals on first use and keeps them.

        The serving key holds the default lfsr-sc artifact as the
        ``.sched`` framing wrote it for this net (its SHA-256 is the line
        the old ``.sched`` golden pinned), with its sidecar, beside a MIP
        table pair in its old framing that is not the synthesized one.
        Neither is read: the boot compiles an ``.npz`` artifact, the next
        boot builds nothing, the MIP pair is synthesized, and the
        maintenance commands leave both files in place.
        """
        from repro.cli import main
        from repro.keys import sng_ud_table_key
        from repro.sc import mip
        from repro.sc.generators import generator_fingerprint

        n, key = 5, "sched-digits-quick-lfsr-sc-n5"
        table = get_worker_cache().sng_ud_table("lfsr", n)
        data = _rpsched(
            sng_ud_table_key(n, generator_fingerprint("lfsr", n)), table,
            {"n_bits": n, "generator": "lfsr"}, {"engines": ["lfsr-sc"], "layers": []},
        )
        assert hashlib.sha256(data).hexdigest() == (
            "214fd970bb7879df209c1140e7f6a0ec535643524b71d3eff4643d95bdb57248"
        )
        old_tables = [t[::-1].astype("<u2") for t in mip.synthesize_mip_tables(n)]
        old = {
            f"{key}.sched": data,
            "sng-mip-v1-n5.sched": b"RPMIP\x01\x05\x00" + b"".join(t.tobytes() for t in old_tables),
        }
        for name, payload in old.items():
            (store.root / name).write_bytes(payload)
        (store.root / f"{key}.sched.sha256").write_text(
            f"{hashlib.sha256(data).hexdigest()}  {key}.sched\n"
        )

        cfg = ParallelConfig(workers=0, batch_size=3)
        reset_worker_cache()
        on_demand = predict_logits(small_net(engine="lfsr-sc", n_bits=n), images, cfg)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            compiled = ensure_compiled(small_net(engine="lfsr-sc", n_bits=n), store, key)
            assert caplog.text.count("event=compile") == 1
            rebooted = ensure_compiled(small_net(engine="lfsr-sc", n_bits=n), store, key)
            assert caplog.text.count("event=compile") == 1
        assert store.checkpoint_path(key).exists()
        assert rebooted.keys() == compiled.keys()
        attach_compiled(rebooted)
        reset_worker_cache()
        got = predict_logits(small_net(engine="lfsr-sc", n_bits=n), images, cfg)
        assert get_worker_cache().stats()["rebuilds"] == 0
        assert np.array_equal(got, on_demand)

        for served, ref in zip(mip.mip_tables(n, store), mip.synthesize_mip_tables(n)):
            assert np.array_equal(served, ref)
        assert store.checkpoint_path(mip.mip_table_key(n)).exists()

        for command in ("ls", "verify", "inspect", "clear"):
            assert main(["cache", command]) == 0, command
            for name, payload in old.items():
                assert (store.root / name).read_bytes() == payload, (command, name)
        out = capsys.readouterr().out
        assert f"{'other':12s} {len(data):10d}  {key}.sched" in out
        assert f"{key}: 1 entries (ud-table=1)" in out
        assert not list(store.root.glob("*.npz"))

    def test_stale_manifest_triggers_recompile(self, store, caplog):
        """An artifact for yesterday's weights is stale, not 'good enough'.

        The replacement is logged at WARNING, where an unconfigured
        process still prints it (``repro cache compile``, ``repro serve``).
        """
        from repro.parallel import schedule_manifest

        old = small_net(seed=3)
        ensure_compiled(old, store, "sched-test")
        new = small_net(seed=11)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            compiled = ensure_compiled(new, store, "sched-test")
        stale = [r for r in caplog.records if "event=stale" in r.getMessage()]
        assert [r.levelno for r in stale] == [logging.WARNING]
        assert all(k in compiled for k in schedule_manifest(new))
