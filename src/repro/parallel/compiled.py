"""Ahead-of-time compiled schedule artifacts.

Every schedule the SC engines need — operand bit tables, signed
appearance-count coefficient matrices and the conventional-SC up/down
tables of the SNG families — is a pure function of the model weights
and engine parameters, identical for every call.  This module compiles
all of them **once** at model-load time into one artifact: an ``.npz``
of its entries, one array per :mod:`repro.keys` content key, persisted
through the artifact store's checkpoint path (atomic rename, SHA-256
sidecar, zip CRC-32 per member, quarantine-then-rebuild) and attached
process-wide as a read-only key → array view
(:func:`~repro.parallel.cache.attach_compiled`).  The process
:class:`~repro.parallel.cache.ScheduleCache` reads it as the second
step of its one lookup (memo → artifact → build), so an artifact that
covers the net leaves nothing to build (``stats()["rebuilds"]`` stays
0).

One walk over ``net.conv_layers`` (``_walk``) names every entry a net
needs, as ``(key, build)`` under the :mod:`repro.keys` strings the
store uses: :func:`schedule_manifest` takes only the keys, and
:func:`compile_network_schedules` runs each build through a scratch
:class:`~repro.parallel.cache.ScheduleCache`, so every compiled table
and layer schedule comes from the same on-demand path the engines use.

The artifact has no format version of its own.  Its entries are content
keys, so an artifact is fresh iff it holds every key of the net's
manifest; the store's version and integrity checks cover the container.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import partial
from typing import Any

import numpy as np

from repro.keys import bit_table_key, layer_digest, sng_ud_table_key
from repro.parallel.cache import ScheduleCache

__all__ = [
    "CompiledSchedules",
    "compile_network_schedules",
    "ensure_compiled",
    "entry_kind",
    "schedule_artifact_key",
    "schedule_manifest",
]

logger = logging.getLogger("repro.artifacts")


def entry_kind(key: str) -> str:
    """The kind of the artifact entry under ``key``, read off the key.

    ``layer-coeff`` and ``layer-const`` (the two suffixes of a layer
    digest), ``bit-table``, and ``ud-table`` (an SNG family's up/down
    table).
    """
    prefix, _, rest = key.partition(":")
    if prefix == "layer":
        return "layer-" + rest.rpartition("/")[2]
    return "ud-table" if prefix == "sng-ud-table" else prefix


class CompiledSchedules:
    """Read-only key → array view of one schedule artifact.

    Built from compiled entries or from the arrays the store loaded.
    Every entry is a read-only view, so a write into one raises instead
    of changing every later answer in the process.
    """

    def __init__(self, entries: dict[str, np.ndarray]) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        for key, array in entries.items():
            view = array.view()
            view.setflags(write=False)
            self._arrays[key] = view

    def get(self, key: str) -> np.ndarray | None:
        """The entry array for ``key`` (read-only), or ``None``."""
        return self._arrays.get(key)

    def keys(self) -> list[str]:
        return list(self._arrays)

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    @property
    def nbytes(self) -> int:
        """Bytes of all entry arrays."""
        return sum(array.nbytes for array in self._arrays.values())

    def describe(self) -> dict[str, Any]:
        """Summary for ``repro cache inspect``: entries per kind, and bytes."""
        kinds = Counter(entry_kind(key) for key in self._arrays)
        return {"entries": len(self), "kinds": dict(sorted(kinds.items())), "nbytes": self.nbytes}


# ---------------------------------------------------------------------------
# compiling a network


def _walk(net, cache: ScheduleCache):
    """Yield ``(key, build)`` for every entry ``net`` needs.

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
                sng_ud_table_key(n, generator_fingerprint(family, n)),
                partial(cache.sng_ud_table, family, n),
            )
        elif isinstance(engine, ProposedScEngine):
            w_int = engine.quantize_weights(conv.weight.value.reshape(conv.out_channels, -1))
            digest = layer_digest(w_int, n)
            layer = partial(cache.layer_coeff, w_int, n)
            yield f"{digest}/coeff", lambda layer=layer: layer()[0]
            yield f"{digest}/const", lambda layer=layer: layer()[1]
            yield bit_table_key(n), partial(cache.bit_table, n)


def schedule_manifest(net) -> list[str]:
    """The content keys ``net`` needs, without building any schedule.

    Cheap (quantization only), so staleness of an existing artifact can
    be decided before deciding to recompile: the artifact is fresh iff
    it holds every manifest key.
    """
    return [key for key, _ in _walk(net, ScheduleCache())]


def compile_network_schedules(net) -> dict[str, np.ndarray]:
    """Build every schedule ``net`` needs: its artifact entries, key → array.

    Every build runs through a scratch :class:`ScheduleCache`, so the
    compiled arrays come from the exact code path the on-demand lookup
    uses — bit-identical by construction.  Entries keep walk order; a
    key the walk names twice (the bit table of two layers) is one entry.
    """
    entries: dict[str, np.ndarray] = {}
    for key, build in _walk(net, ScheduleCache(max_layers=1 << 30)):
        if key not in entries:
            entries[key] = build()
    return entries


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

    Loads the ``.npz`` under ``key`` through the store's checkpoint
    path: a missing, corrupt or store-stale artifact comes back
    ``None`` (the store quarantines the last two) and is compiled; one
    that does not hold every manifest key is stale and recompiled in
    place.  All of it runs under the store's cross-process lock, and it
    never raises on bad artifact bytes.
    """
    if store is None:
        from repro.experiments.common import get_store

        store = get_store()
    needed = schedule_manifest(net)
    with store.lock(key):
        arrays = store.load_checkpoint(key)
        if arrays is not None:
            compiled = CompiledSchedules(arrays)
            if all(k in compiled for k in needed):
                logger.info("event=hit key=%s kind=schedule-compiled", key)
                return compiled
            logger.warning("event=stale key=%s reason=manifest-not-covered", key)
        entries = compile_network_schedules(net)
        store.save_checkpoint(key, entries)
        compiled = CompiledSchedules(entries)
        logger.info(
            "event=compile key=%s entries=%d bytes=%d", key, len(compiled), compiled.nbytes
        )
        return compiled
