"""Atomic, self-healing artifact store for every array and result.

Every array the reproduction persists reaches disk through one path,
the checkpoint path (:meth:`ArtifactStore.save_checkpoint` /
:meth:`~ArtifactStore.check_checkpoint` /
:meth:`~ArtifactStore.load_checkpoint`): trained-model checkpoints,
the compiled schedule artifacts of :mod:`repro.parallel.compiled` and
the MIP-synthesized SNG tables of :mod:`repro.sc.mip`, each one
``.npz`` of named arrays plus a metadata record.  Result artefacts
(``.json``) ride beside them.  The store guarantees:

* **Atomic writes** — payloads are written to a ``*.tmp`` file in the
  destination directory, fsynced, then moved into place with
  :func:`os.replace`, so a crashed or killed writer can never leave a
  half-written artifact under the final name.
* **Integrity validation on load** — an ``.npz`` is verified with a
  zip end-of-central-directory check, a SHA-256 sidecar
  (``<name>.npz.sha256``), the zip CRC-32 of every member it reads, and
  a schema/param-count check before any array reaches a caller.
* **Graceful degradation** — a corrupt or stale entry is quarantined
  to ``*.corrupt`` with a warning and the caller rebuilds it (retrains,
  recompiles, resynthesizes); it never crashes the run.
* **Cross-process locking** — writers for the same key serialize on a
  ``*.lock`` file (POSIX ``flock``), so concurrent harness/benchmark
  runs cannot torn-write a shared entry.
* **Store versioning** — each ``.npz`` records the store format
  version, and a checkpoint also a fingerprint of the producing spec;
  changing a :class:`~repro.experiments.common.BenchmarkSpec` silently
  invalidates old checkpoints instead of loading mismatched weights.

Hit/miss/corrupt/stale/retrain events are logged on the
``repro.artifacts`` logger in ``event=... key=...`` structured form.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

try:  # POSIX only; the store degrades to lockless on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "STORE_VERSION",
    "META_KEY",
    "ArtifactInfo",
    "ArtifactStore",
    "atomic_write_bytes",
    "atomic_write_text",
    "fingerprint",
    "logger",
]

logger = logging.getLogger("repro.artifacts")

#: Bump to invalidate every existing checkpoint (format change).
STORE_VERSION = 1

#: npz entry holding the JSON metadata record.
META_KEY = "__artifact_meta__"

_SIDECAR_SUFFIX = ".sha256"
_QUARANTINE_SUFFIX = ".corrupt"
_LOCK_SUFFIX = ".lock"


def _event(level: int, event: str, key: str, **fields: Any) -> None:
    """Structured ``event=... key=...`` log line."""
    parts = [f"event={event}", f"key={key}"]
    parts += [f"{k}={v}" for k, v in fields.items()]
    logger.log(level, "%s", " ".join(parts))


def fingerprint(obj: Any) -> str:
    """Deterministic fingerprint of a spec-like object.

    Dataclasses are converted to their field dict; anything JSON
    serializable hashes as-is. The store format version is folded in so
    bumping :data:`STORE_VERSION` invalidates all prior checkpoints.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    blob = json.dumps(
        {"store_version": STORE_VERSION, "spec": obj},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fsync_dir(path: Path) -> None:
    """Flush directory metadata so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


def atomic_write_text(path: Path, text: str) -> None:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ArtifactInfo:
    """One store entry as reported by ``ls``/``verify``."""

    name: str  #: file name relative to the store root
    kind: str  #: "checkpoint", "result", "quarantined", "sidecar", "lock", "other"
    size: int  #: bytes on disk
    status: str = ""  #: "ok" / "corrupt" / "stale" ("" when unverified)
    reason: str = ""  #: human-readable detail for non-ok status


class ArtifactStore:
    """Checkpoint/result store rooted at one directory.

    Cheap to construct; every public method is safe against concurrent
    writers on the same root (POSIX).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    def checkpoint_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _sidecar_path(self, path: Path) -> Path:
        return path.with_name(path.name + _SIDECAR_SUFFIX)

    # ------------------------------------------------------------------
    # locking
    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Exclusive cross-process lock for one artifact key."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.root / f"{key}{_LOCK_SUFFIX}"
        with open(lock_path, "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # checkpoints
    def save_checkpoint(
        self,
        key: str,
        arrays: dict[str, np.ndarray],
        spec_fingerprint: str = "",
    ) -> Path:
        """Atomically persist ``arrays`` plus metadata and SHA sidecar."""
        meta = {
            "store_version": STORE_VERSION,
            "fingerprint": spec_fingerprint,
            "params": len(arrays),
        }
        meta_arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **arrays, **{META_KEY: meta_arr})
        data = buf.getvalue()
        path = self.checkpoint_path(key)
        atomic_write_bytes(path, data)
        atomic_write_text(
            self._sidecar_path(path), f"{_sha256_hex(data)}  {path.name}\n"
        )
        _event(logging.INFO, "save", key, bytes=len(data))
        return path

    def _read_meta(self, blob: Any) -> dict[str, Any] | None:
        if META_KEY not in getattr(blob, "files", ()):
            return None
        try:
            return json.loads(bytes(blob[META_KEY].tobytes()).decode())
        except (ValueError, UnicodeDecodeError):
            return None

    def _read_checkpoint(
        self,
        key: str,
        spec_fingerprint: str | None,
        expected_params: int | None,
        load: bool,
    ) -> tuple[str, str, dict[str, np.ndarray] | None]:
        """``(status, reason, arrays)`` of one checkpoint, from one read of its file.

        With ``load``, the arrays are parsed from the bytes the checks
        run on (``None`` unless the status is ``"ok"``), so a member that
        fails its zip CRC-32 makes the checkpoint ``"corrupt"``.
        """
        path = self.checkpoint_path(key)
        if not path.exists():
            return "missing", "no such checkpoint", None
        try:
            data = path.read_bytes()
        except OSError as exc:  # pragma: no cover - permissions etc.
            return "corrupt", f"unreadable: {exc}", None
        if not zipfile.is_zipfile(io.BytesIO(data)):
            return "corrupt", "not a zip archive (bad or missing EOCD)", None
        sidecar = self._sidecar_path(path)
        if sidecar.exists():
            recorded = sidecar.read_text().split()
            if not recorded or recorded[0] != _sha256_hex(data):
                return "corrupt", "SHA-256 sidecar mismatch", None
        try:
            with np.load(io.BytesIO(data)) as blob:
                names = [name for name in blob.files if name != META_KEY]
                meta = self._read_meta(blob)
                arrays = {name: blob[name] for name in names} if load else None
        except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as exc:
            return "corrupt", f"npz load failed: {exc}", None
        if meta is None:
            return "stale", "no artifact metadata (pre-store or foreign file)", None
        if meta.get("store_version") != STORE_VERSION:
            reason = f"store version {meta.get('store_version')} != {STORE_VERSION}"
            return "stale", reason, None
        if spec_fingerprint is not None and meta.get("fingerprint") != spec_fingerprint:
            return "stale", "spec fingerprint mismatch", None
        if meta.get("params") != len(names):
            return "corrupt", f"param count {len(names)} != recorded {meta.get('params')}", None
        if expected_params is not None and len(names) != expected_params:
            return "stale", f"param count {len(names)} != expected {expected_params}", None
        return "ok", "", arrays

    def check_checkpoint(
        self,
        key: str,
        spec_fingerprint: str | None = None,
        expected_params: int | None = None,
    ) -> tuple[str, str]:
        """Validate one checkpoint without loading its arrays.

        Returns ``(status, reason)`` where status is ``"ok"``,
        ``"missing"``, ``"corrupt"`` (unreadable bytes), or ``"stale"``
        (readable but produced by a different spec/format).
        """
        return self._read_checkpoint(key, spec_fingerprint, expected_params, load=False)[:2]

    def load_checkpoint(
        self,
        key: str,
        spec_fingerprint: str | None = None,
        expected_params: int | None = None,
    ) -> dict[str, np.ndarray] | None:
        """Load a validated checkpoint, or ``None`` after quarantining.

        The file is read once: the arrays come from the bytes
        :meth:`check_checkpoint`'s checks ran on.  Never raises on bad
        store contents: corrupt/stale checkpoints are moved to
        ``*.corrupt`` and the caller is expected to rebuild and re-save.
        """
        status, reason, arrays = self._read_checkpoint(
            key, spec_fingerprint, expected_params, load=True
        )
        if status == "missing":
            _event(logging.INFO, "miss", key)
            return None
        if status != "ok":
            self.quarantine(key, reason=f"{status}: {reason}")
            return None
        _event(logging.INFO, "hit", key, params=len(arrays))
        return arrays

    def quarantine(self, key: str, reason: str = "") -> Path | None:
        """Move a bad checkpoint aside to ``*.corrupt`` (never raises)."""
        path = self.checkpoint_path(key)
        dest = path.with_name(path.name + _QUARANTINE_SUFFIX)
        try:
            os.replace(path, dest)
        except OSError:
            return None
        self._sidecar_path(path).unlink(missing_ok=True)
        _event(
            logging.WARNING,
            "quarantine",
            key,
            dest=dest.name,
            reason=repr(reason),
        )
        return dest

    # ------------------------------------------------------------------
    # JSON results
    def save_json(self, name: str, envelope: dict[str, Any]) -> Path:
        """Atomically persist one JSON result artefact plus sidecar."""
        path = self.root / f"{name}.json"
        text = json.dumps(envelope, indent=2, sort_keys=True)
        atomic_write_text(path, text)
        atomic_write_text(
            self._sidecar_path(path),
            f"{_sha256_hex(text.encode('utf-8'))}  {path.name}\n",
        )
        _event(logging.INFO, "save", name, kind="result")
        return path

    # ------------------------------------------------------------------
    # maintenance (CLI)
    def ls(self) -> list[ArtifactInfo]:
        """Inventory of the store, sorted by name.

        A file of any other suffix is ``other`` (such as a ``*.sched``
        schedule artifact written before schedules were ``.npz``
        entries): ``verify`` skips it and ``clear`` leaves it.
        """
        kinds = {
            ".npz": "checkpoint",
            ".json": "result",
            _QUARANTINE_SUFFIX: "quarantined",
            _SIDECAR_SUFFIX: "sidecar",
            _LOCK_SUFFIX: "lock",
        }
        out = []
        for path in sorted(self.root.iterdir()):
            if not path.is_file():
                continue
            kind = kinds.get(path.suffix, "other")
            out.append(ArtifactInfo(path.name, kind, path.stat().st_size))
        return out

    def verify(
        self, fingerprints: dict[str, str] | None = None
    ) -> list[ArtifactInfo]:
        """Validate every checkpoint and result in the store.

        ``fingerprints`` maps checkpoint keys to their expected spec
        fingerprint; keys not in the map skip the staleness check.
        """
        fingerprints = fingerprints or {}
        out = []
        for info in self.ls():
            if info.kind == "checkpoint":
                key = info.name[: -len(".npz")]
                status, reason = self.check_checkpoint(
                    key, spec_fingerprint=fingerprints.get(key)
                )
                out.append(dataclasses.replace(info, status=status, reason=reason))
            elif info.kind == "result":
                status, reason = self._check_result(self.root / info.name)
                out.append(dataclasses.replace(info, status=status, reason=reason))
            elif info.kind == "quarantined":
                out.append(dataclasses.replace(info, status="quarantined"))
        return out

    def _check_result(self, path: Path) -> tuple[str, str]:
        try:
            data = path.read_bytes()
            json.loads(data.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            return "corrupt", f"bad JSON: {exc}"
        sidecar = self._sidecar_path(path)
        if sidecar.exists():
            recorded = sidecar.read_text().split()
            if not recorded or recorded[0] != _sha256_hex(data):
                return "corrupt", "SHA-256 sidecar mismatch"
        return "ok", ""

    def clear(self, quarantined_only: bool = False) -> int:
        """Delete store contents; returns the number of files removed."""
        removed = 0
        for info in self.ls():
            if quarantined_only and info.kind != "quarantined":
                continue
            if info.kind == "other":
                continue
            (self.root / info.name).unlink(missing_ok=True)
            removed += 1
        if removed:
            _event(logging.INFO, "clear", str(self.root), files=removed)
        return removed
