"""MIP-synthesized SNG sequence tables (Lee et al., arXiv:1902.05971).

Lee, Sim & Choi formulate SNG sequence selection as a mixed-integer
program: pick the comparator's random sequence (a permutation of
``0 .. 2**n - 1`` per operand) that minimizes the exhaustive multiply
error.  No MIP solver ships in this environment, so we synthesize
tables with a deterministic local search over the same objective —
exhaustive bipolar multiply error, scored like the LFSR seed scan
(``4 * |bias| + std``, bias weighted because it accumulates coherently
over deep dot products):

1. the weight table is the identity ramp (``k`` ones up front, the
   sorted stream of the paper's Fig. 1(b) reordering argument) — one
   coordinate of the 2-D Hammersley set, whose pairing with a van der
   Corput partner has optimal star discrepancy;
2. the data table starts from the van der Corput permutation and scans
   every XOR digit scramble, then every cyclic time rotation of the
   winner, keeping the lowest-error candidate at each stage;
3. a bounded pairwise-swap refinement pass then walks a fixed
   pseudo-random schedule of index pairs, keeping each swap that
   lowers the score.

The search is fully deterministic, so every process synthesizes
byte-identical tables — but it is not free (2.3 s at N=8 on a 2-core
host), so the result is persisted once through the artifact store's
checkpoint path, as an ``.npz`` of the two tables ``w`` and ``x``
under :func:`mip_table_key` (``sng-mip-v<version>-n<bits>``), and
loaded afterwards.  A loaded pair must be two permutations of the
``2**n`` words; any other stored content is resynthesized and
rewritten.
"""

from __future__ import annotations

import numpy as np

from repro.sc.multipliers import pairwise_partial_counts_from_streams

__all__ = [
    "MIP_TABLE_VERSION",
    "MIP_MAX_BITS",
    "TableSource",
    "mip_table_key",
    "synthesize_mip_tables",
    "mip_tables",
]

#: Bump when the synthesis objective or search schedule changes; the
#: version is part of the store key and of the family fingerprint, so
#: stale tables and stale compiled schedules both miss cleanly.
MIP_TABLE_VERSION = 1

#: Synthesis is exhaustive over scrambles and rotations (``2 * 2**n``
#: candidate tables, each scored with a ``(2**n + 1)**2`` multiply
#: sweep).  8 bits matches the widest engine precision the repo serves
#: and synthesizes in a few seconds.
MIP_MAX_BITS = 8

_MEMO: dict[int, tuple[np.ndarray, np.ndarray]] = {}


class TableSource:
    """Random source replaying one fixed sequence table cyclically."""

    def __init__(self, table: np.ndarray, n_bits: int) -> None:
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        if table.shape != (1 << n_bits,):
            raise ValueError(
                f"table of {table.shape} does not cover {n_bits}-bit words"
            )
        self.n_bits = n_bits
        self._table = table
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def sequence(self, length: int) -> np.ndarray:
        idx = (self._pos + np.arange(length, dtype=np.int64)) % self._table.size
        self._pos = int((self._pos + length) % self._table.size)
        return self._table[idx]


def mip_table_key(n_bits: int) -> str:
    """Artifact-store key of one synthesized table pair."""
    return f"sng-mip-v{MIP_TABLE_VERSION}-n{int(n_bits)}"


def _vdc(n_bits: int) -> np.ndarray:
    """Bit-reversed counter: the van der Corput base-2 permutation."""
    out = np.zeros(1 << n_bits, dtype=np.int64)
    v = np.arange(1 << n_bits, dtype=np.int64)
    for _ in range(n_bits):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


def _score(rand_w: np.ndarray, rand_x: np.ndarray, n_bits: int) -> float:
    """Exhaustive bipolar multiply error of one table pair."""
    length = 1 << n_bits
    half = length >> 1
    mags = np.arange(length + 1, dtype=np.int64)
    bits_w = (rand_w[None, :] < mags[:, None]).astype(np.int64)
    bits_x = (rand_x[None, :] < mags[:, None]).astype(np.int64)
    ones = pairwise_partial_counts_from_streams(bits_w, bits_x, [length])["ones"][0]
    est = (2.0 * ones - length) / length
    vals = (mags - half) / half
    err = est - vals[:, None] * vals[None, :]
    return 4.0 * abs(float(err.mean())) + float(err.std())


def synthesize_mip_tables(n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic local-search surrogate for the MIP synthesis.

    Returns ``(table_w, table_x)``, both int64 permutations of
    ``0 .. 2**n - 1``.  Pure compute — no store IO (see
    :func:`mip_tables` for the cached entry point).
    """
    if not 1 <= n_bits <= MIP_MAX_BITS:
        raise ValueError(
            f"mip tables are synthesized for 1..{MIP_MAX_BITS} bits, not {n_bits}"
        )
    length = 1 << n_bits
    idx = np.arange(length, dtype=np.int64)
    table_w = idx.copy()
    vdc = _vdc(n_bits)
    # -- XOR digit-scramble scan -------------------------------------------
    best_score = np.inf
    best_xor = 0
    for s in range(length):
        score = _score(table_w, vdc ^ s, n_bits)
        if score < best_score:
            best_xor, best_score = s, score
    scrambled = vdc ^ best_xor
    # -- cyclic time-rotation scan on the winner ---------------------------
    best_rot = 0
    for rot in range(1, length):
        score = _score(table_w, scrambled[(idx + rot) % length], n_bits)
        if score < best_score:
            best_rot, best_score = rot, score
    table_x = scrambled[(idx + best_rot) % length].copy()
    # -- bounded pairwise-swap refinement ----------------------------------
    swaps = min(128, 4 * length)
    for k in range(swaps):
        i = (k * 7919) % length
        j = (k * 104729 + (length >> 1)) % length
        if i == j:
            continue
        table_x[i], table_x[j] = table_x[j], table_x[i]
        score = _score(table_w, table_x, n_bits)
        if score < best_score:
            best_score = score
        else:
            table_x[i], table_x[j] = table_x[j], table_x[i]
    return table_w, table_x


def _permutations(
    arrays: dict[str, np.ndarray], n_bits: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The stored ``(w, x)``, or ``None`` unless both are permutations of the ``2**n`` words."""
    words = np.arange(1 << n_bits)
    tables = (arrays.get("w"), arrays.get("x"))
    if any(t is None or not np.array_equal(np.sort(t), words) for t in tables):
        return None
    return tables


def mip_tables(n_bits: int, store=None) -> tuple[np.ndarray, np.ndarray]:
    """Load (or synthesize-and-persist) the table pair for one width.

    The store round-trip runs under the artifact lock so concurrent
    processes synthesize at most once; a corrupt entry is quarantined by
    the store, and it or any pair that is not two permutations is
    resynthesized and rewritten in place.  Without a ``store`` a width
    this process loaded before answers from memory; a call that passes
    one always makes the round-trip, so that store gets its tables
    (from the memo, if the width is there, rather than synthesized
    again).
    """
    cached = _MEMO.get(n_bits)
    if cached is not None and store is None:
        return cached
    if store is None:
        from repro.experiments.common import get_store

        store = get_store()
    key = mip_table_key(n_bits)
    with store.lock(key):
        arrays = store.load_checkpoint(key)
        tables = _permutations(arrays, n_bits) if arrays is not None else None
        if tables is None:
            tables = cached if cached is not None else synthesize_mip_tables(n_bits)
            store.save_checkpoint(key, {"w": tables[0], "x": tables[1]})
    _MEMO[n_bits] = tables
    return tables
