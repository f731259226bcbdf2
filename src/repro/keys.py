"""Canonical content keys for schedule state.

Every piece of content-keyed schedule state — each layer's
appearance-count coefficients and the up/down tables of the SNG
families — is addressed by one string key produced here.  The process
schedule store (:class:`~repro.parallel.cache.ScheduleCache`) keeps
every entry in one memo under these strings and the ahead-of-time
compiled artifact (:mod:`repro.parallel.compiled`) stores its entries
under the same ones, so "the same schedule" means one thing everywhere
and a store lookup can fall through from its memo to the artifact by
key alone.

Keys are ``"<kind>:<sha1-hex>"``: readable enough to group by kind in
logs and in ``repro cache inspect``, which counts an artifact's entries
by kind off their keys alone
(:func:`repro.parallel.compiled.entry_kind`), and stable across
processes and runs.  The kind is hashed with the content, so a key
names one layout: coefficients stored in another layout before
(``layer:<sha1>/coeff``) can never be served under a key made here.
This module is a leaf — it imports nothing from :mod:`repro` — so every
layer (``sc``, ``core``, ``parallel``, ``experiments``) can use it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "content_key",
    "layer_coeff_key",
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


def layer_coeff_key(w_int: np.ndarray, n_bits: int) -> str:
    """Key of one weight matrix's ``(D*N, M)`` coefficient matrix.

    Keyed by the quantized weight *bytes* (plus dtype/shape via
    :func:`content_key`) and the precision, so in-place weight mutation
    can never serve a stale schedule — the contract the stateful cache
    fleet pins.
    """
    w = np.ascontiguousarray(np.asarray(w_int, dtype=np.int64))
    return content_key("layer-coeff", w, int(n_bits))


def sng_ud_table_key(n_bits: int, fingerprint: tuple) -> str:
    """Key of one SNG family's XNOR up/down table.

    ``fingerprint`` is the registered SNG family's content fingerprint
    (:meth:`repro.sc.generators.SngFamily.fingerprint`) — family key
    plus whatever pins its sequences (table versions, lane layout,
    seeds and tap polynomials) — so a family revision can never serve a
    stale table.
    """
    return content_key("sng-ud-table", int(n_bits), tuple(fingerprint))
