"""Ahead-of-time compiled schedule artifacts.

Every schedule the SC engines need — operand bit tables, signed
appearance-count coefficient matrices and the conventional-SC up/down
tables of the SNG families — is a pure function of the model weights
and engine parameters, identical for every call.  This module
compiles all of them **once** at model-load time into one versioned
binary artifact, persisted through the artifact store (atomic rename
+ SHA-256 sidecar) and attached process-wide as a read-only buffer
(:func:`~repro.parallel.cache.attach_compiled`).  The process
:class:`~repro.parallel.cache.ScheduleCache` reads it as the second
step of its one lookup (memo → artifact → build), so an artifact that
covers the net leaves nothing to build (``stats()["rebuilds"]`` stays
0).

One walk over ``net.conv_layers`` (``_walk``) names every entry a net
needs, as ``(key, kind, params, build)`` under the :mod:`repro.keys`
strings the store uses: :func:`schedule_manifest` takes only the keys,
and :func:`compile_network_schedules` runs each build through a scratch
:class:`~repro.parallel.cache.ScheduleCache`, so every compiled table
and layer schedule comes from the same on-demand path the engines use.

Artifact layout (all little-endian)::

    [0:8)    MAGIC  b"RPSCHED\\0"
    [8:16)   uint64 header length H
    [16:16+H) compact JSON header:
              {"format", "version", "meta", "payload_len",
               "payload_crc", "entries": [{key, kind, params,
                                           dtype, shape, offset, nbytes}]}
    ...      zero padding to the next 64-byte boundary
    payload  concatenated C-contiguous arrays, each 64-byte aligned

A wrong magic/bounds/CRC raises :class:`ScheduleArtifactError`; a
*future* format version raises the typed
:class:`~repro.errors.ArtifactVersionError` so callers recompile
instead of crashing on bytes they cannot interpret.  Entry payloads are
exposed as zero-copy read-only views into the backing buffer (a
``memmap`` from the store, or in-memory bytes).
"""

from __future__ import annotations

import json
import logging
import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ArtifactVersionError
from repro.keys import bit_table_key, layer_digest, sng_ud_table_key
from repro.parallel.cache import ScheduleCache

__all__ = [
    "MAGIC",
    "SCHEDULE_FORMAT_VERSION",
    "CompiledSchedules",
    "ScheduleArtifactError",
    "ScheduleEntry",
    "compile_network_schedules",
    "ensure_compiled",
    "schedule_artifact_key",
    "schedule_manifest",
    "serialize_schedules",
]

logger = logging.getLogger("repro.artifacts")

MAGIC = b"RPSCHED\x00"
_FORMAT_NAME = "repro-schedule"

#: Bump on any layout change; readers reject other versions with
#: :class:`ArtifactVersionError` and recompile.
SCHEDULE_FORMAT_VERSION = 1

_ALIGN = 64


class ScheduleArtifactError(RuntimeError):
    """The artifact bytes are not a readable schedule artifact.

    Truncation, bad magic, unparseable header, out-of-bounds entries
    and CRC mismatch all land here; the caller treats it as an artifact
    miss (recompile / on-demand build), never as fatal.
    """


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ScheduleEntry:
    """One compiled array: content key, kind tag, params, payload."""

    key: str
    kind: str  #: "layer-coeff", "layer-const", "bit-table", "ud-table"
    params: dict[str, Any] = field(default_factory=dict)
    array: np.ndarray = field(default_factory=lambda: np.zeros(0))


def serialize_schedules(
    entries: Iterable[ScheduleEntry], meta: dict[str, Any] | None = None
) -> bytes:
    """Pack entries into one artifact blob (deduplicated by key)."""
    records: list[dict[str, Any]] = []
    parts: list[bytes] = []
    seen: set[str] = set()
    offset = 0
    for entry in entries:
        if entry.key in seen:
            continue
        seen.add(entry.key)
        arr = np.ascontiguousarray(entry.array)
        data = arr.tobytes()
        records.append(
            {
                "key": entry.key,
                "kind": entry.kind,
                "params": entry.params,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        parts.append(data)
        offset += len(data)
        pad = _align(offset) - offset
        if pad:
            parts.append(b"\x00" * pad)
            offset += pad
    payload = b"".join(parts)
    header = {
        "format": _FORMAT_NAME,
        "version": SCHEDULE_FORMAT_VERSION,
        "meta": meta or {},
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload) & 0xFFFFFFFF,
        "entries": records,
    }
    # Compact separators keep the header byte-stable so tests can patch
    # single fields (e.g. bump "version":1) without reframing.
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes
    return head + b"\x00" * (_align(len(head)) - len(head)) + payload


class CompiledSchedules:
    """Read-only parsed view over one schedule artifact buffer.

    The buffer may be ``bytes`` or a ``uint8`` memmap from the artifact
    store; entry
    arrays are zero-copy views into it, so the instance keeps the
    buffer alive for as long as any entry is referenced.
    """

    def __init__(self, buf) -> None:
        if isinstance(buf, (bytes, bytearray, memoryview)):
            buf = np.frombuffer(bytes(buf), dtype=np.uint8)
        buf = np.asarray(buf)
        if buf.dtype != np.uint8:
            buf = buf.view(np.uint8)
        self._buf: np.ndarray = buf.reshape(-1)
        n = int(self._buf.size)
        if n < 16:
            raise ScheduleArtifactError(f"artifact too small ({n} bytes)")
        if self._buf[:8].tobytes() != MAGIC:
            raise ScheduleArtifactError("bad magic (not a schedule artifact)")
        header_len = struct.unpack("<Q", self._buf[8:16].tobytes())[0]
        if header_len == 0 or 16 + header_len > n:
            raise ScheduleArtifactError(f"header length {header_len} out of bounds")
        try:
            header = json.loads(self._buf[16 : 16 + header_len].tobytes().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ScheduleArtifactError(f"header parse failed: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
            raise ScheduleArtifactError("header is not a schedule-artifact header")
        version = header.get("version")
        if version != SCHEDULE_FORMAT_VERSION:
            raise ArtifactVersionError(
                f"schedule artifact version {version!r} is not the supported "
                f"version {SCHEDULE_FORMAT_VERSION}; recompile required"
            )
        payload_offset = _align(16 + int(header_len))
        payload_len = int(header.get("payload_len", max(0, n - payload_offset)))
        if payload_offset + payload_len > n:
            raise ScheduleArtifactError("payload extends past end of artifact")
        self.version: int = int(version)
        self.meta: dict[str, Any] = header.get("meta") or {}
        self._payload = self._buf[payload_offset : payload_offset + payload_len]
        self._payload_crc = header.get("payload_crc")
        self._records: dict[str, dict[str, Any]] = {}
        self._arrays: dict[str, np.ndarray] = {}
        for rec in header.get("entries", []):
            try:
                key = rec["key"]
                dtype = np.dtype(rec["dtype"])
                shape = tuple(int(s) for s in rec["shape"])
                off, nbytes = int(rec["offset"]), int(rec["nbytes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ScheduleArtifactError(f"malformed entry record: {exc}") from None
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if off < 0 or nbytes != expected or off + nbytes > payload_len:
                raise ScheduleArtifactError(f"entry {key!r} payload out of bounds")
            arr = self._payload[off : off + nbytes].view(dtype).reshape(shape)
            if arr.flags.writeable:
                arr.setflags(write=False)
            self._records[key] = rec
            self._arrays[key] = arr

    # -- lookups -----------------------------------------------------------
    def get(self, key: str) -> np.ndarray | None:
        """The entry array for ``key`` (read-only view), or ``None``."""
        return self._arrays.get(key)

    def keys(self) -> list[str]:
        return list(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    # -- integrity / plumbing ----------------------------------------------
    def validate(self) -> None:
        """Recompute the payload CRC-32; raise on mismatch."""
        if self._payload_crc is None:
            return
        crc = zlib.crc32(self._payload.tobytes()) & 0xFFFFFFFF
        if crc != self._payload_crc:
            raise ScheduleArtifactError(
                f"payload CRC mismatch (stored {self._payload_crc:#x}, got {crc:#x})"
            )

    @property
    def blob(self) -> np.ndarray:
        """The whole artifact as a 1-D ``uint8`` array."""
        return self._buf

    @property
    def nbytes(self) -> int:
        return int(self._buf.size)

    def describe(self) -> dict[str, Any]:
        """Summary for ``repro cache inspect``."""
        kinds: dict[str, int] = {}
        for rec in self._records.values():
            kinds[rec.get("kind", "?")] = kinds.get(rec.get("kind", "?"), 0) + 1
        return {
            "version": self.version,
            "entries": len(self._records),
            "kinds": dict(sorted(kinds.items())),
            "nbytes": self.nbytes,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# compiling a network


def _walk(net, cache: ScheduleCache):
    """Yield ``(key, kind, params, build)`` for every entry ``net`` needs.

    One pass over ``net.conv_layers``: an lfsr-sc layer needs the
    up/down table of its engine's SNG family (the default ``lfsr`` pair
    like any other), a proposed-sc layer its coefficients, its count
    constant and the bit table.  ``build()`` makes the entry's array
    through ``cache``, the on-demand path the engines use.  Yielding
    builds nothing; only proposed-sc weights are quantized, to key them.
    """
    from repro.nn.engines import LfsrScEngine, ProposedScEngine
    from repro.sc.generators import generator_fingerprint

    for conv in net.conv_layers:
        engine, n = conv.engine, int(conv.engine.n_bits)
        if isinstance(engine, LfsrScEngine):
            family = engine.family()
            yield (
                sng_ud_table_key(n, generator_fingerprint(family, n)), "ud-table",
                {"n_bits": n, "generator": family}, partial(cache.sng_ud_table, family, n),
            )
        elif isinstance(engine, ProposedScEngine):
            w_int = engine.quantize_weights(conv.weight.value.reshape(conv.out_channels, -1))
            digest = layer_digest(w_int, n)
            params = {"shape": list(w_int.shape), "n_bits": n}
            layer = partial(cache.layer_coeff, w_int, n)
            yield f"{digest}/coeff", "layer-coeff", params, lambda layer=layer: layer()[0]
            yield f"{digest}/const", "layer-const", params, lambda layer=layer: layer()[1]
            yield bit_table_key(n), "bit-table", {"n_bits": n}, partial(cache.bit_table, n)


def _meta(net, walk) -> dict[str, Any]:
    """The artifact header's ``meta``: engine names and proposed-sc layers."""
    layers = [
        {"digest": key[: -len("/coeff")], **params}
        for key, kind, params, _ in walk
        if kind == "layer-coeff"
    ]
    return {"engines": sorted({conv.engine.name for conv in net.conv_layers}), "layers": layers}


def schedule_manifest(net) -> tuple[list[str], dict[str, Any]]:
    """The content keys ``net`` needs, without building any schedule.

    Cheap (quantization only), so staleness of an existing artifact can
    be decided before deciding to recompile: the artifact is fresh iff
    the manifest keys are a subset of its entry keys.
    """
    walk = list(_walk(net, ScheduleCache()))
    return [key for key, _, _, _ in walk], _meta(net, walk)


def compile_network_schedules(net) -> tuple[list[ScheduleEntry], dict[str, Any]]:
    """Build every schedule ``net`` needs as artifact entries.

    Every build runs through a scratch :class:`ScheduleCache`, so the
    compiled bytes come from the exact code path the on-demand lookup
    uses — bit-identical by construction.
    """
    walk = list(_walk(net, ScheduleCache(max_layers=1 << 30)))
    entries = [ScheduleEntry(key, kind, params, build()) for key, kind, params, build in walk]
    return entries, _meta(net, walk)


def schedule_artifact_key(
    benchmark: str, engine: str, n_bits: int, generator: str | None = None
) -> str:
    """Store key of the compiled artifact for one (model, engine) pair.

    A non-default SNG ``generator`` joins the key so artifacts compiled
    for different families never collide; the default (``None`` /
    ``"lfsr"``) keeps the unsuffixed key.
    """
    base = f"sched-{benchmark}-{engine}-n{int(n_bits)}"
    if generator in (None, "lfsr"):
        return base
    return f"{base}-g{generator}"


def ensure_compiled(net, store=None, key: str = "schedules") -> CompiledSchedules:
    """Load-or-compile the schedule artifact for ``net``.

    Returns a validated :class:`CompiledSchedules` backed by the store's
    memory-mapped blob.  A missing, corrupt, stale (manifest not
    covered) or future-versioned artifact is recompiled in place under
    the store's cross-process lock; this function never raises on bad
    artifact bytes.
    """
    if store is None:
        from repro.experiments.common import get_store

        store = get_store()
    needed, _ = schedule_manifest(net)
    with store.lock(key):
        blob = store.load_blob(key)
        if blob is not None:
            try:
                compiled = CompiledSchedules(blob)
                compiled.validate()
                if all(k in compiled for k in needed):
                    logger.info("event=hit key=%s kind=schedule-compiled", key)
                    return compiled
                logger.info("event=stale key=%s reason=manifest-not-covered", key)
            except ArtifactVersionError as exc:
                logger.warning("event=stale key=%s reason=%r", key, str(exc))
            except ScheduleArtifactError as exc:
                logger.warning("event=corrupt key=%s reason=%r", key, str(exc))
        entries, meta = compile_network_schedules(net)
        data = serialize_schedules(entries, meta)
        store.save_blob(key, data)
        blob = store.load_blob(key)
        compiled = CompiledSchedules(blob if blob is not None else data)
        compiled.validate()
        logger.info(
            "event=compile key=%s entries=%d bytes=%d", key, len(compiled), len(data)
        )
        return compiled
