"""Canonical content keys for schedule state.

Every piece of content-keyed schedule state — per-layer appearance-count
coefficient matrices, operand bit tables and the up/down tables of the
SNG families — is addressed by one string key produced here.  The
process schedule store (:class:`~repro.parallel.cache.ScheduleCache`)
keeps every entry in one memo under these strings and the ahead-of-time
compiled artifact (:mod:`repro.parallel.compiled`) stores its entries
under the same ones, so "the same schedule" means one thing everywhere
and a store lookup can fall through from its memo to the artifact by
key alone.  A
layer's two entries are ``<layer_digest>/coeff`` and
``<layer_digest>/const``; the store's derived layouts append their own
suffix to the key of their source.

Keys are ``"<kind>:<sha1-hex>"``: readable enough to group by kind in
logs and ``repro cache inspect``, stable across processes and runs.
This module is a leaf — it imports nothing from :mod:`repro` — so every
layer (``sc``, ``core``, ``parallel``, ``experiments``) can use it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "content_key",
    "layer_digest",
    "bit_table_key",
    "sng_ud_table_key",
]


def _feed(h, part) -> None:
    """Hash one key component with an unambiguous type/shape prefix."""
    if isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        h.update(f"nd|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    elif isinstance(part, (tuple, list)):
        h.update(f"seq|{len(part)}|".encode())
        for item in part:
            _feed(h, item)
    else:
        h.update(f"{type(part).__name__}|{part}|".encode())


def content_key(kind: str, *parts) -> str:
    """``"<kind>:<sha1>"`` over the typed, shape-tagged ``parts``."""
    h = hashlib.sha1(f"{kind}|".encode())
    for part in parts:
        _feed(h, part)
    return f"{kind}:{h.hexdigest()}"


def layer_digest(w_int: np.ndarray, n_bits: int) -> str:
    """Content key of one weight matrix's coefficient schedule.

    Keyed by the quantized weight *bytes* (plus dtype/shape via
    :func:`content_key`) and the precision, so in-place weight mutation
    can never serve a stale schedule — the contract the stateful cache
    fleet pins.
    """
    w = np.ascontiguousarray(np.asarray(w_int, dtype=np.int64))
    return content_key("layer", w, int(n_bits))


def bit_table_key(n_bits: int) -> str:
    """Key of the ``(N, 2**N)`` MSB-first offset-word bit matrix."""
    return content_key("bit-table", int(n_bits))


def sng_ud_table_key(n_bits: int, fingerprint: tuple) -> str:
    """Key of one SNG family's XNOR up/down table.

    ``fingerprint`` is the registered SNG family's content fingerprint
    (:meth:`repro.sc.generators.SngFamily.fingerprint`) — family key
    plus whatever pins its sequences (table versions, lane layout,
    seeds and tap polynomials) — so a family revision can never serve a
    stale table.
    """
    return content_key("sng-ud-table", int(n_bits), tuple(fingerprint))
