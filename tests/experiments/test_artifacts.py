"""Crash-simulation and corruption-matrix tests for the artifact store.

Every failure mode here must log, quarantine, and retrain — never raise
into a harness. The matrix covers: truncated npz, non-zip garbage,
SHA-256 sidecar mismatch, wrong param count, mismatched spec
fingerprint, plus concurrent writers and mid-write crashes.
"""

from __future__ import annotations

import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.artifacts import (
    META_KEY,
    STORE_VERSION,
    ArtifactStore,
    atomic_write_bytes,
    fingerprint,
)
from repro.experiments.common import BenchmarkSpec, get_trained_model

TINY_SPEC = BenchmarkSpec("tiny-artifact", "digits", 40, 10, 1, 0.02, 8)


@pytest.fixture
def store(tmp_path, monkeypatch) -> ArtifactStore:
    """Fresh store in tmp, with the global cache repointed at it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ArtifactStore(tmp_path)


def _arrays(n: int = 3) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    return {f"p{i}": rng.normal(size=(4, 3)) for i in range(n)}


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"

    def test_no_tmp_litter(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"x")
        assert not list(tmp_path.glob("*.tmp"))

    def test_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "a.bin"
        atomic_write_bytes(path, b"x")
        assert path.read_bytes() == b"x"

    def test_concurrent_writers_never_tear(self, tmp_path):
        """N processes hammer one path; the survivor is a full payload."""
        path = tmp_path / "contested.bin"
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.experiments.artifacts import atomic_write_bytes\n"
            "from pathlib import Path\n"
            "payload = sys.argv[2].encode() * 5000\n"
            "for _ in range(20): atomic_write_bytes(Path(sys.argv[1]), payload)\n"
        ).format(src=str(Path(__file__).resolve().parents[2] / "src"))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(path), ch])
            for ch in "abcd"
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        data = path.read_bytes()
        assert len(data) == 5000
        assert data == data[:1] * 5000  # uniform: exactly one writer's payload


class TestFingerprint:
    def test_stable(self):
        assert fingerprint(TINY_SPEC) == fingerprint(TINY_SPEC)

    def test_sensitive_to_fields(self):
        other = BenchmarkSpec("tiny-artifact", "digits", 40, 10, 2, 0.02, 8)
        assert fingerprint(TINY_SPEC) != fingerprint(other)


class TestCorruptionMatrix:
    """Each bad checkpoint must quarantine + return None, never raise."""

    def _assert_quarantined(self, store: ArtifactStore, key: str):
        assert not store.checkpoint_path(key).exists()
        assert store.checkpoint_path(key).with_suffix(".npz.corrupt").exists()

    def test_roundtrip_ok(self, store):
        arrays = _arrays()
        store.save_checkpoint("k", arrays, spec_fingerprint="fp")
        out = store.load_checkpoint("k", spec_fingerprint="fp", expected_params=3)
        assert out is not None and set(out) == set(arrays)
        assert np.array_equal(out["p0"], arrays["p0"])

    def test_missing_is_a_miss_not_quarantine(self, store):
        assert store.load_checkpoint("nope") is None
        assert not list(store.root.glob("*.corrupt"))

    def test_non_zip_garbage(self, store, caplog):
        store.checkpoint_path("k").write_bytes(b"this is not a zip file")
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            assert store.load_checkpoint("k") is None
        self._assert_quarantined(store, "k")
        assert "event=quarantine" in caplog.text

    def test_truncated_mid_write(self, store):
        """Simulate a crash half-way through a (non-atomic) write."""
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        path = store.checkpoint_path("k")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load_checkpoint("k", spec_fingerprint="fp") is None
        self._assert_quarantined(store, "k")

    def test_bitflip_caught_by_sidecar(self, store):
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        path = store.checkpoint_path("k")
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF
        path.write_bytes(bytes(data))
        status, reason = store.check_checkpoint("k")
        assert status == "corrupt"
        assert "sidecar" in reason.lower() or "zip" in reason
        assert store.load_checkpoint("k") is None
        self._assert_quarantined(store, "k")

    def test_wrong_param_count(self, store):
        store.save_checkpoint("k", _arrays(2), spec_fingerprint="fp")
        assert (
            store.load_checkpoint("k", spec_fingerprint="fp", expected_params=5)
            is None
        )
        self._assert_quarantined(store, "k")

    def test_mismatched_fingerprint(self, store):
        store.save_checkpoint("k", _arrays(), spec_fingerprint="old-spec")
        status, reason = store.check_checkpoint("k", spec_fingerprint="new-spec")
        assert status == "stale" and "fingerprint" in reason
        assert store.load_checkpoint("k", spec_fingerprint="new-spec") is None
        self._assert_quarantined(store, "k")

    def test_foreign_npz_without_meta_is_stale(self, store):
        np.savez(store.checkpoint_path("k"), p0=np.zeros(3))
        status, reason = store.check_checkpoint("k")
        assert status == "stale"
        assert store.load_checkpoint("k") is None
        self._assert_quarantined(store, "k")

    def test_old_store_version_is_stale(self, store, monkeypatch):
        import repro.experiments.artifacts as artifacts_mod

        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        monkeypatch.setattr(artifacts_mod, "STORE_VERSION", STORE_VERSION + 1)
        status, reason = store.check_checkpoint("k")
        assert status == "stale" and "version" in reason

    def test_meta_never_leaks_into_arrays(self, store):
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        out = store.load_checkpoint("k", spec_fingerprint="fp")
        assert META_KEY not in out

    def test_sigkill_mid_rename_leaves_old_checkpoint_intact(self, store):
        """A writer SIGKILLed at the rename point leaves only tmp
        litter: the published artifact is still the previous, valid
        payload, and later writers are unaffected."""
        arrays = _arrays()
        store.save_checkpoint("k", arrays, spec_fingerprint="fp")
        script = (
            "import os, signal, sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from pathlib import Path\n"
            "from repro.experiments.artifacts import atomic_write_bytes\n"
            "os.replace = lambda a, b: os.kill(os.getpid(), signal.SIGKILL)\n"
            "atomic_write_bytes(Path(sys.argv[1]), b'must never be published')\n"
        ).format(src=str(Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(store.checkpoint_path("k"))]
        )
        assert proc.wait(timeout=120) == -9  # died exactly mid-rename
        assert list(store.root.glob("*.tmp")), "expected the orphaned tmp file"
        out = store.load_checkpoint("k", spec_fingerprint="fp", expected_params=3)
        assert out is not None and np.array_equal(out["p0"], arrays["p0"])
        # the litter does not poison later writes to the same key
        store.save_checkpoint("k", _arrays(2), spec_fingerprint="fp2")
        assert store.load_checkpoint("k", spec_fingerprint="fp2") is not None

    def test_partial_sidecar_quarantines(self, store):
        """A sidecar torn mid-write (half a hash) must read as corrupt."""
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        sidecar = store.checkpoint_path("k").with_suffix(".npz.sha256")
        sidecar.write_text(sidecar.read_text()[: len(sidecar.read_text()) // 2])
        status, reason = store.check_checkpoint("k")
        assert status == "corrupt"
        assert store.load_checkpoint("k") is None
        self._assert_quarantined(store, "k")


class TestScheduleBlobs:
    """Schedule artifacts and MIP tables are store entries like any checkpoint.

    Checked, quarantined, listed and cleared by the one checkpoint path;
    a ``.sched`` file from before they were ``.npz`` entries is ``other``.
    """

    @staticmethod
    def _compile(store):
        from repro.nn import attach_engines, build_mnist_net
        from repro.nn.calibration import LayerRanges
        from repro.parallel import ensure_compiled

        net = build_mnist_net(seed=3, c1=2, c2=2, fc=8)
        attach_engines(net, "proposed-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=6)
        return ensure_compiled(net, store, "sched")

    def test_missing_blob_is_a_miss(self, store, caplog):
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            self._compile(store)
        assert "event=miss key=sched" in caplog.text
        assert "event=quarantine" not in caplog.text
        assert not list(store.root.glob("*.corrupt"))

    def test_missing_sidecar_tolerated(self, store, caplog):
        """A hand-placed artifact without a sidecar still loads."""
        self._compile(store)
        store.root.joinpath("sched.npz.sha256").unlink()
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            self._compile(store)
        assert "event=hit key=sched kind=schedule-compiled" in caplog.text
        assert "event=compile" not in caplog.text

    def test_sidecar_mismatch_quarantines(self, store, caplog):
        from repro.sc.mip import mip_table_key, mip_tables

        mip_tables(4, store)
        path = store.checkpoint_path(mip_table_key(4))
        path.write_bytes(path.read_bytes().replace(b"x.npy", b"y.npy"))
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            assert store.load_checkpoint(mip_table_key(4)) is None
        assert "event=quarantine" in caplog.text and "sidecar" in caplog.text
        assert path.with_suffix(".npz.corrupt").exists()

    def test_ls_and_verify_cover_schedules(self, store):
        from repro.sc.mip import mip_tables

        self._compile(store)
        mip_tables(4, store)
        (store.root / "sched.sched").write_bytes(b"RPSCHED\0 from before")
        kinds = {i.name: i.kind for i in store.ls()}
        assert kinds["sched.npz"] == kinds["sng-mip-v1-n4.npz"] == "checkpoint"
        assert kinds["sched.sched"] == "other"
        statuses = {i.name: i.status for i in store.verify()}
        assert statuses == {"sched.npz": "ok", "sng-mip-v1-n4.npz": "ok"}
        store.clear()
        assert [p.name for p in store.root.iterdir()] == ["sched.sched"]

    def test_verify_flags_tampered_schedule(self, store):
        self._compile(store)
        store.checkpoint_path("sched").write_bytes(b"tampered")
        statuses = {i.name: i.status for i in store.verify()}
        assert statuses["sched.npz"] == "corrupt"


class TestLocking:
    def test_lock_reentrant_across_keys(self, store):
        with store.lock("a"), store.lock("b"):
            pass

    def test_lock_serializes_processes(self, store, tmp_path):
        """Two processes under the same key lock never interleave."""
        log = tmp_path / "events.log"
        script = (
            "import sys, time; sys.path.insert(0, {src!r})\n"
            "from repro.experiments.artifacts import ArtifactStore\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "with store.lock('shared'):\n"
            "    with open(sys.argv[2], 'a') as fh:\n"
            "        fh.write(f'start-{{sys.argv[3]}}\\n'); fh.flush()\n"
            "        time.sleep(0.2)\n"
            "        fh.write(f'end-{{sys.argv[3]}}\\n'); fh.flush()\n"
        ).format(src=str(Path(__file__).resolve().parents[2] / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store.root), str(log), tag]
            )
            for tag in ("A", "B")
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 4
        # critical sections are properly nested: start-X immediately
        # followed by end-X, for both processes
        assert lines[0].split("-")[1] == lines[1].split("-")[1]
        assert lines[2].split("-")[1] == lines[3].split("-")[1]


class TestSelfHealingTraining:
    """get_trained_model must retrain through every corruption mode."""

    def test_corrupt_checkpoint_retrains(self, store, caplog):
        store.checkpoint_path(TINY_SPEC.name).write_bytes(b"garbage" * 100)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            model = get_trained_model(TINY_SPEC)
        assert model.float_accuracy >= 0.0
        assert "event=quarantine" in caplog.text
        assert "event=retrain" in caplog.text
        # the rewritten checkpoint is valid and reused
        status, _ = store.check_checkpoint(
            TINY_SPEC.name, spec_fingerprint=TINY_SPEC.fingerprint()
        )
        assert status == "ok"

    def test_stale_fingerprint_retrains(self, store, caplog):
        get_trained_model(TINY_SPEC)  # write a valid checkpoint
        changed = BenchmarkSpec("tiny-artifact", "digits", 40, 10, 2, 0.02, 8)
        with caplog.at_level(logging.WARNING, logger="repro.artifacts"):
            get_trained_model(changed)
        assert "event=quarantine" in caplog.text

    def test_partial_sidecar_retrains(self, store, caplog):
        """Self-heal through the torn-sidecar case end to end."""
        get_trained_model(TINY_SPEC)  # write a valid checkpoint
        sidecar = store.checkpoint_path(TINY_SPEC.name).with_suffix(
            ".npz.sha256"
        )
        sidecar.write_text(sidecar.read_text()[:20])
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            model = get_trained_model(TINY_SPEC)
        assert model.float_accuracy >= 0.0
        assert "event=quarantine" in caplog.text
        assert "event=retrain" in caplog.text
        status, _ = store.check_checkpoint(
            TINY_SPEC.name, spec_fingerprint=TINY_SPEC.fingerprint()
        )
        assert status == "ok"

    def test_healed_cache_is_a_hit(self, store, caplog):
        get_trained_model(TINY_SPEC)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            get_trained_model(TINY_SPEC)
        assert "event=hit" in caplog.text
        assert "event=retrain" not in caplog.text


class TestMaintenance:
    def test_ls_kinds(self, store):
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        store.save_json("res", {"experiment": "res", "result": 1})
        kinds = {i.name: i.kind for i in store.ls()}
        assert kinds["k.npz"] == "checkpoint"
        assert kinds["k.npz.sha256"] == "sidecar"
        assert kinds["res.json"] == "result"

    def test_verify_reports_mixed_store(self, store):
        store.save_checkpoint("good", _arrays(), spec_fingerprint="fp")
        store.checkpoint_path("bad").write_bytes(b"junk")
        statuses = {i.name: i.status for i in store.verify()}
        assert statuses["good.npz"] == "ok"
        assert statuses["bad.npz"] == "corrupt"

    def test_verify_checks_result_sidecar(self, store):
        path = store.save_json("res", {"experiment": "res", "result": 1})
        path.write_text('{"tampered": true}')
        statuses = {i.name: i.status for i in store.verify()}
        assert statuses["res.json"] == "corrupt"

    def test_clear_quarantined_only(self, store):
        store.save_checkpoint("good", _arrays(), spec_fingerprint="fp")
        store.checkpoint_path("bad").write_bytes(b"junk")
        store.load_checkpoint("bad")  # quarantines
        removed = store.clear(quarantined_only=True)
        assert removed == 1
        assert store.checkpoint_path("good").exists()

    def test_clear_all(self, store):
        store.save_checkpoint("k", _arrays(), spec_fingerprint="fp")
        assert store.clear() >= 2  # npz + sidecar
        assert not list(store.root.glob("*.npz"))
