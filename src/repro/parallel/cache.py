"""The process store of layer coefficients and up/down tables.

Inference reuses the same conv weights for every batch, but the
reference kernel (:func:`repro.core.mvm.sc_matmul`) rebuilds the
appearance-count coefficients of every weight (the per-select-line
totals implied by its down-counter load) on every call.  So the process
keeps one :class:`ScheduleCache` (:func:`get_worker_cache`), from which
every proposed-SC and conventional-SC engine call draws, on any thread.

The store keeps exactly what the kernels read, in two entry kinds, each
a pure function of content and kept in one memo under the
:mod:`repro.keys` string a compiled artifact
(:mod:`repro.parallel.compiled`) uses for the same content:

* ``layer-coeff`` (:meth:`ScheduleCache.layer_coeff`, under
  :func:`~repro.keys.layer_coeff_key`): a weight matrix's sign-folded
  coefficients in the ``(D*N, M)`` layout the GEMM of
  :meth:`ScheduleCache.sc_matmul` multiplies, keyed by the weight
  bytes, so in-place fine-tuning never serves stale schedules;
* ``ud-table`` (:meth:`ScheduleCache.sng_ud_table`, under
  :func:`~repro.keys.sng_ud_table_key`): the conventional-SC up/down
  table of each registry SNG family, the default shared-LFSR pair
  included.

The ``(2**N, N)`` bit rows the GEMM gathers are a function of ``N``
alone, so they are built once per ``N`` outside the store
(:func:`_bit_rows`, read-only), and the subtraction constant of the
closed form is the row sum of the weights, taken per call.

One private lookup serves both kinds, in one order: the memo, then the
attached artifact (an entry of the wrong shape, or a table of the wrong
dtype, is a miss there, not an error), then a build outside the lock.
It alone holds the lock, the shape check of a served memo entry, the
counters and the LRU bound (``max_layers`` layers; tables stay).  One
counting rule covers both kinds: every lookup counts one hit or one
miss (and fires the ``hook``), an artifact entry served counts one
``compiled_hits``, and every miss builds its entry (``rebuilds``), so a
warm engine call counts one lookup per layer or table and a boot from a
covering artifact builds nothing.  Every array handed out is read-only
(the lookup freezes what it inserts; artifact entries are read-only
views), so a write into a table raises instead of changing every later
answer in the process.  Artifact entries are never copied into the
memo, so a dropped cache comes back warm.

:meth:`ScheduleCache.sc_matmul` combines these into a fast path that is
**bit-exact** with :func:`repro.core.mvm.sc_matmul`: all operands are
small integers, so the GEMM is exact (every partial sum is an
exactly-representable integer) and the result is identical down to the
last LSB under any summation order.  The rule that makes it so: a
layer's coefficients are float32 only when every partial sum stays
below ``2**24`` (bounded by twice the column's total coefficient mass),
and float64 — exact below ``2**53`` — otherwise.  The parity fleet in
``tests/parallel`` pins this.  The layout is chosen for the gather: bit
rows land contiguously in a ``(P, D*N)`` operand matrix whose columns
are the coefficients' rows, so no per-batch transposing copy of the
``N``-fold bit expansion is ever made.

A module lock guards creating and dropping the process cache itself, so
threads that start on a dropped cache all get the same new one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache, partial

import numpy as np

from repro.core.accumulator import check_acc_bits
from repro.core.fsm_generator import coefficient_vector
from repro.core.mvm import sc_matmul
from repro.keys import layer_coeff_key, sng_ud_table_key
from repro.sc.encoding import bits_msb_first, signed_range

__all__ = [
    "CachePoisonedError",
    "ScheduleCache",
    "attach_compiled",
    "detach_compiled",
    "get_worker_cache",
    "reset_worker_cache",
]

#: float32 GEMM is exact while every partial sum stays below 2**24.
_F32_EXACT_BOUND = 1 << 24


@lru_cache(maxsize=16)
def _bit_rows(n_bits: int) -> np.ndarray:
    """``(2**N, N)`` float32, read-only: row ``v`` holds the MSB-first bits of word ``v``."""
    words = np.arange(1 << n_bits, dtype=np.int64)
    rows = np.ascontiguousarray(bits_msb_first(words, n_bits), dtype=np.float32)
    rows.setflags(write=False)
    return rows


def _coefficients(w: np.ndarray, n_bits: int) -> np.ndarray:
    """Sign-folded coefficients of ``w`` in the GEMM's ``(D*N, M)`` layout.

    Row ``d*N + n`` holds select line ``n`` of operand ``d``: the column
    order of a gathered ``(P, D, N)`` bit block.  float32 while the GEMM
    is exact in it: any partial sum is at most the column's total
    coefficient mass ``sum_{d,n} |coeff|``.
    """
    m, d = w.shape
    sign = np.where(w < 0, -1, 1).astype(np.int64)
    coeff = coefficient_vector(np.abs(w), n_bits) * sign[:, :, None]  # (M, D, N)
    coeff = np.ascontiguousarray(coeff.transpose(1, 2, 0)).reshape(d * n_bits, m)
    mass = int(np.abs(coeff).sum(axis=0).max()) if coeff.size else 0
    return coeff.astype(np.float32 if 2 * mass < _F32_EXACT_BOUND else np.float64)


class CachePoisonedError(RuntimeError):
    """A cached schedule failed validation and must not be served.

    Raised when a memo entry no longer has the shape its key promises.
    The call fails loudly instead of computing on garbage;
    :func:`reset_worker_cache` drops the cache, and the next call
    rebuilds from the weights.
    """


class ScheduleCache:
    """Process-local store of layer coefficients and up/down tables.

    One memo keyed by :mod:`repro.keys` content strings, backed by an
    optional compiled artifact ``compiled`` (a
    :class:`repro.parallel.compiled.CompiledSchedules`, duck-typed: only
    its ``get(key)`` is used).  The module docstring gives the lookup
    order and what each counter counts; :meth:`stats` reports them.
    Threads may share one instance.
    """

    def __init__(self, max_layers: int = 32, hook=None, compiled=None) -> None:
        self.max_layers = max_layers
        self.compiled = compiled
        #: key -> (kind, read-only array), least recently used first
        self._memo: OrderedDict[str, tuple[str, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compiled_hits = 0
        #: optional observer ``hook("hit" | "miss")`` fired on every
        #: lookup.  The serving layer points this at its metrics
        #: counters; it must be cheap and must not raise.
        self.hook = hook

    @property
    def rebuilds(self) -> int:
        """Entries built: every miss builds the entry it looked up."""
        return self.misses

    def _lookup(self, key: str, kind: str, shape: tuple, build, dtype=None) -> np.ndarray:
        """The entry ``key``: from the memo, else the artifact, else ``build()``.

        A memo entry of another shape than ``shape`` raises
        :class:`CachePoisonedError`; an artifact entry of another shape,
        or of another ``dtype`` where one is given, is a miss.
        """
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                entry = cached[1]
                if entry.shape != shape:
                    raise CachePoisonedError(
                        f"cached {kind} {key[:24]} failed shape validation"
                    )
                self._memo.move_to_end(key)
            else:
                compiled = self.compiled  # read once: attach_compiled may swap it
                entry = None if compiled is None else compiled.get(key)
                if entry is not None and (
                    entry.shape != shape or (dtype is not None and entry.dtype != dtype)
                ):
                    entry = None
                if entry is not None:
                    self.compiled_hits += 1
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            if self.hook is not None:
                self.hook("miss" if entry is None else "hit")
            if entry is not None:
                return entry
        entry = build()
        entry.setflags(write=False)
        with self._lock:
            self._memo[key] = (kind, entry)
            if kind == "layer-coeff":
                layers = [k for k, (k_kind, _) in self._memo.items() if k_kind == kind]
                for old in layers[: max(0, len(layers) - self.max_layers)]:
                    del self._memo[old]
        return entry

    def sng_ud_table(self, generator: str, n_bits: int) -> np.ndarray:
        """XNOR up/down table of one registry SNG family, the default included.

        Keyed by the registered family's content fingerprint via
        :func:`repro.keys.sng_ud_table_key` (for ``lfsr``: its seed pair
        and both tap polynomials), so compiled artifacts and the memo
        agree across family revisions; built by
        :func:`repro.sc.generators.generator_ud_table`.
        """
        from repro.sc import generators

        side = (1 << n_bits) + 1
        key = sng_ud_table_key(n_bits, generators.generator_fingerprint(generator, n_bits))
        build = partial(generators.generator_ud_table, generator, n_bits)
        return self._lookup(key, "ud-table", (side, side), build, np.int64)

    def layer_coeff(self, w_int: np.ndarray, n_bits: int) -> np.ndarray:
        """Sign-folded ``(D*N, M)`` coefficient matrix of ``w_int``.

        Row ``d*N + n`` holds select line ``n`` of operand ``d`` for
        every output row (float32 when exact, float64 otherwise).  Keyed
        by weight *content*, so in-place weight updates miss and
        recompute.
        """
        w = np.ascontiguousarray(np.asarray(w_int, dtype=np.int64))
        m, d = w.shape
        return self._lookup(
            layer_coeff_key(w, n_bits), "layer-coeff", (d * n_bits, m),
            partial(_coefficients, w, n_bits),
        )

    def sc_matmul(
        self,
        w_int: np.ndarray,
        x_int: np.ndarray,
        n_bits: int,
        acc_bits: int = 2,
        saturate: str | None = "final",
    ) -> np.ndarray:
        """BISC-MVM matrix product, bit-exact with :func:`~repro.core.mvm.sc_matmul`.

        The ``"term"`` saturation mode is order-dependent along the dot
        product and gains nothing from the cached closed form, so it
        delegates to the reference implementation.

        The whole product is one gather and one GEMM.  Each operand's
        offset word picks its ``N``-wide row of the ``(2**N, N)`` bit
        rows, so the gather writes one contiguous ``(P, D*N)`` matrix
        with no transposing copy, and that matrix multiplies the layer's
        ``(D*N, M)`` coefficients (:meth:`layer_coeff`, one store lookup
        per call).  The GEMM is exact: the cached coefficients are
        float32 only when every partial sum is below ``2**24`` (float64
        otherwise).
        """
        if saturate == "term":
            return sc_matmul(w_int, x_int, n_bits, acc_bits, saturate=saturate)
        w = np.asarray(w_int, dtype=np.int64)
        x = np.asarray(x_int)
        if x.dtype.kind not in "iu":
            x = x.astype(np.int64)
        if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
            raise ValueError(f"shape mismatch: {w.shape} @ {x.shape}")
        lo, hi = signed_range(n_bits)
        for name, arr in (("w_int", w), ("x_int", x)):
            if arr.size and (arr.min() < lo or arr.max() > hi):
                raise ValueError(f"{name} out of {n_bits}-bit signed range")
        if saturate not in ("final", None):
            raise ValueError(f"unknown saturate mode: {saturate!r}")

        d, p = x.shape
        coeff = self.layer_coeff(w, n_bits)
        # Offset-binary words, transposed: row q holds the D operands of
        # output column q, so gathering their (2**N, N) bit rows lands as
        # one contiguous (P, D, N) block and the reshape to (P, D*N) is free.
        # One pass, from x's own integer dtype (the int16 words of a conv
        # layer) straight to the gather's index type.
        offs = np.add(x.T, 1 << (n_bits - 1), dtype=np.intp, order="C")
        bits = np.take(_bit_rows(n_bits), offs, axis=0)
        prod = bits.reshape(p, d * n_bits) @ coeff  # (P, M)
        ones_signed = np.rint(prod).astype(np.int64)  # exact: integer-valued sums
        out = 2 * ones_signed - w.sum(axis=1)
        if saturate == "final":
            width = check_acc_bits(n_bits, acc_bits)
            out = np.clip(out, -(1 << (width - 1)), (1 << (width - 1)) - 1)
        return out.T

    def stats(self) -> dict[str, int]:
        """Counters and resident layers (for logs and tests)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "layers": sum(kind == "layer-coeff" for kind, _ in self._memo.values()),
                "rebuilds": self.rebuilds,
                "compiled_hits": self.compiled_hits,
            }


_WORKER_CACHE: ScheduleCache | None = None
#: Serializes creating, dropping and re-pointing ``_WORKER_CACHE``, so
#: shard threads that start on a dropped cache all get the same one.
_WORKER_CACHE_LOCK = threading.Lock()

#: Process-global compiled artifact.  Survives cache drops
#: (:func:`reset_worker_cache` resets only ``_WORKER_CACHE``), so a
#: fresh cache serves from it instead of rebuilding schedules.
_PROCESS_COMPILED = None


def attach_compiled(compiled) -> None:
    """Install a compiled schedule artifact for this process.

    The live process cache (if any) starts reading it immediately.
    """
    global _PROCESS_COMPILED
    with _WORKER_CACHE_LOCK:
        _PROCESS_COMPILED = compiled
        if _WORKER_CACHE is not None:
            _WORKER_CACHE.compiled = compiled


def detach_compiled() -> None:
    """Drop the process-global compiled artifact (fallback/tests)."""
    global _PROCESS_COMPILED
    with _WORKER_CACHE_LOCK:
        _PROCESS_COMPILED = None
        if _WORKER_CACHE is not None:
            _WORKER_CACHE.compiled = None


def get_worker_cache() -> ScheduleCache:
    """The process-global cache, shared by every call and shard thread.

    Created lazily with whatever compiled artifact is attached, so a
    dropped cache comes back *warm*: the cache is disposable, the
    artifact is not.
    """
    global _WORKER_CACHE
    cache = _WORKER_CACHE
    if cache is None:
        with _WORKER_CACHE_LOCK:
            if _WORKER_CACHE is None:
                _WORKER_CACHE = ScheduleCache(compiled=_PROCESS_COMPILED)
            cache = _WORKER_CACHE
    return cache


def reset_worker_cache() -> None:
    """Drop the process-global cache (tests, or after a :class:`CachePoisonedError`)."""
    global _WORKER_CACHE
    with _WORKER_CACHE_LOCK:
        _WORKER_CACHE = None
