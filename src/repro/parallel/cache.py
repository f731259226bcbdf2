"""The process store of schedules, up/down tables and weight coefficient loads.

Inference reuses the same conv weights for every batch, but the
reference kernel (:func:`repro.core.mvm.sc_matmul`) rebuilds the whole
FSM bookkeeping — appearance-count coefficients (the per-select-line
totals implied by the weight's down-counter load) and the operand bit
expansion — on every call.  So the process keeps one
:class:`ScheduleCache` (:func:`get_worker_cache`), from which every
proposed-SC and conventional-SC engine call draws, on any thread.

Every entry is a pure function of content, and the store keeps them
all in one memo under the :mod:`repro.keys` string a compiled artifact
(:mod:`repro.parallel.compiled`) uses for the same content:
``bit_table`` (the ``(N, 2**N)`` MSB-first bit matrix of every offset
word), ``sng_ud_table`` (the conventional-SC up/down table of each
registry SNG family, the default shared-LFSR pair included),
``layer_coeff`` (``<layer digest>/coeff`` and ``/const``: a weight
matrix's sign-folded coefficients and count constant, keyed by the
weight bytes, so in-place fine-tuning never serves stale schedules),
and the two layouts :meth:`ScheduleCache.sc_matmul` derives, under
their source's key plus a suffix.

One private lookup serves every entry, in one order: the memo, then the
attached artifact (an entry of the wrong shape, or a table of the wrong
dtype, is a miss there, not an error), then a build outside the lock.
It alone holds the lock, the shape check of a served memo entry, the
counters and the LRU bounds (``max_layers`` layers,
four times as many derived layouts; tables stay).  ``hits`` /
``misses`` and the ``hook`` count the lookups an engine call makes (one
per up/down table, one per layer); ``compiled_hits`` counts artifact
entries served and ``rebuilds`` the builds of entries an artifact can
hold, so a boot from a covering artifact builds nothing.  Every array
handed out is read-only (the lookup freezes what it inserts; artifact
entries are read-only views), so a write into a table raises instead of
changing every later answer in the process.  Artifact entries are never
copied into the memo, so a dropped cache comes back warm.

:meth:`ScheduleCache.sc_matmul` combines these into a fast path that is
**bit-exact** with :func:`repro.core.mvm.sc_matmul`: all operands are
small integers, so the GEMM is exact (every partial sum is an
exactly-representable integer) and the result is identical down to the
last LSB under any summation order.  The rule that makes it so: a
layer's coefficients are float32 only when every partial sum stays
below ``2**24`` (bounded by twice the row's total coefficient mass),
and float64 — exact below ``2**53`` — otherwise.  The parity fleet in
``tests/parallel`` pins this.  The layout is chosen for the gather: bit
rows land contiguously in a ``(P, D*N)`` operand matrix, and the
coefficients are re-laid to match it once per layer, so no per-batch
transposing copy of the ``N``-fold bit expansion is ever made.

A module lock guards creating and dropping the process cache itself, so
threads that start on a dropped cache all get the same new one.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from functools import partial

import numpy as np

from repro.core.accumulator import check_acc_bits
from repro.core.fsm_generator import coefficient_vector
from repro.core.mvm import sc_matmul
from repro.keys import bit_table_key, layer_digest, sng_ud_table_key
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

#: Entry kinds an engine call looks up: they count ``hits``/``misses``.
_ENGINE_KINDS = frozenset({"ud-table", "layer-coeff"})
#: Entry kinds that count ``compiled_hits``/``rebuilds`` (a layer's
#: constant rides on its coefficients).
_ARTIFACT_KINDS = _ENGINE_KINDS | {"bit-table"}
#: LRU bound of each bounded kind, in units of ``max_layers``.
_BOUNDS = {"layer-coeff": 1, "layer-const": 1, "derived": 4}


def _bit_table(n_bits: int) -> np.ndarray:
    words = np.arange(1 << n_bits, dtype=np.int64)
    return np.ascontiguousarray(bits_msb_first(words, n_bits).T.astype(np.float32))


def _coefficients(w: np.ndarray, n_bits: int) -> np.ndarray:
    """Sign-folded ``(M, N*D)`` select-line-major coefficients of ``w``.

    float32 while the GEMM is exact in it: any partial sum is at most
    the row's total coefficient mass ``sum_{d,n} |coeff|``.
    """
    m, d = w.shape
    sign = np.where(w < 0, -1, 1).astype(np.int64)
    coeff = coefficient_vector(np.abs(w), n_bits) * sign[:, :, None]  # (M, D, N)
    coeff_t = np.ascontiguousarray(coeff.transpose(0, 2, 1)).reshape(m, d * n_bits)
    mass = int(np.abs(coeff_t).sum(axis=1).max()) if coeff_t.size else 0
    return coeff_t.astype(np.float32 if 2 * mass < _F32_EXACT_BOUND else np.float64)


def _d_major(coeff_t: np.ndarray, n_bits: int) -> np.ndarray:
    """Re-lay ``(M, N*D)`` select-line-major coefficients as ``(D*N, M)``.

    Row ``d*N + n`` holds select line ``n`` of operand ``d``: the column
    order of a gathered ``(P, D, N)`` bit block.
    """
    m, nd = coeff_t.shape
    by_line = coeff_t.reshape(m, n_bits, nd // n_bits)  # (M, N, D)
    return np.ascontiguousarray(by_line.transpose(2, 1, 0)).reshape(nd, m)


class CachePoisonedError(RuntimeError):
    """A cached schedule failed validation and must not be served.

    Raised when a memo entry no longer has the shape its key promises.
    The call fails loudly instead of computing on garbage;
    :func:`reset_worker_cache` drops the cache, and the next call
    rebuilds from the weights.
    """


class ScheduleCache:
    """Process-local store of schedules and per-layer coefficient loads.

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
        self.rebuilds = 0
        self.compiled_hits = 0
        #: optional observer ``hook("hit" | "miss")`` fired on every
        #: lookup an engine call makes.  The serving layer points this at
        #: its metrics counters; it must be cheap and must not raise.
        self.hook = hook

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
                if kind in _ARTIFACT_KINDS:
                    if entry is None:
                        self.rebuilds += 1
                    else:
                        self.compiled_hits += 1
            if kind in _ENGINE_KINDS:
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
            if kind in _BOUNDS:
                same = [k for k, (k_kind, _) in self._memo.items() if k_kind == kind]
                for old in same[: max(0, len(same) - _BOUNDS[kind] * self.max_layers)]:
                    del self._memo[old]
        return entry

    # -- tables -------------------------------------------------------------
    def bit_table(self, n_bits: int) -> np.ndarray:
        """``(N, 2**N)`` float32 matrix: row ``n`` = MSB-first bit ``n``."""
        return self._lookup(
            bit_table_key(n_bits), "bit-table", (n_bits, 1 << n_bits),
            partial(_bit_table, n_bits), np.float32,
        )

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

    # -- per-layer coefficient loads --------------------------------------
    def layer_coeff(self, w_int: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Sign-folded coefficient matrix + count constant for ``w_int``.

        Returns ``(coeff_t, const)`` where ``coeff_t`` has shape
        ``(M, N*D)`` in select-line-major order (float32 when exact,
        float64 otherwise) and ``const[m] = sum_d sign*|w|`` (the row sum
        of ``w``) is the subtraction constant of the closed form.  Keyed by weight
        *content*, so in-place weight updates miss and recompute.
        """
        return self._layer(w_int, n_bits)[1:]

    def _layer(self, w_int: np.ndarray, n_bits: int) -> tuple[str, np.ndarray, np.ndarray]:
        """:meth:`layer_coeff` with the layer's content key in front."""
        w = np.ascontiguousarray(np.asarray(w_int, dtype=np.int64))
        digest = layer_digest(w, n_bits)
        m, d = w.shape
        coeff_t = self._lookup(
            f"{digest}/coeff", "layer-coeff", (m, d * n_bits), partial(_coefficients, w, n_bits)
        )
        const = self._lookup(f"{digest}/const", "layer-const", (m,), partial(w.sum, axis=1))
        return digest, coeff_t, const

    # -- the fast batched matmul ------------------------------------------
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
        offset word picks its ``N``-wide row of the ``(2**N, N)`` bit-row
        table (the transpose of :meth:`bit_table`), so the gather writes
        one contiguous ``(P, D*N)`` matrix with no transposing copy, and
        that matrix multiplies the layer's coefficients re-laid
        operand-major as ``(D*N, M)``.  Both derived layouts are built
        once (per ``N`` and dtype, per layer) and memoized.  The GEMM is
        exact: the cached coefficients are float32 only when every
        partial sum is below ``2**24`` (float64 otherwise).
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
        digest, coeff_t, const = self._layer(w, n_bits)
        dtype = coeff_t.dtype
        coeff = self._lookup(
            f"{digest}/coeff/d-major{dtype.str}", "derived", (d * n_bits, w.shape[0]),
            partial(_d_major, coeff_t, n_bits),
        )
        rows = self._lookup(
            f"{bit_table_key(n_bits)}/rows{dtype.str}", "derived", (1 << n_bits, n_bits),
            lambda: np.ascontiguousarray(self.bit_table(n_bits).T, dtype=dtype),
        )
        # Offset-binary words, transposed: row q holds the D operands of
        # output column q, so gathering their (2**N, N) bit rows lands as
        # one contiguous (P, D, N) block and the reshape to (P, D*N) is free.
        # One pass, from x's own integer dtype (the int16 words of a conv
        # layer) straight to the gather's index type.
        offs = np.add(x.T, 1 << (n_bits - 1), dtype=np.intp, order="C")
        bits = np.take(rows, offs, axis=0)
        prod = bits.reshape(p, d * n_bits) @ coeff  # (P, M)
        ones_signed = np.rint(prod).astype(np.int64)  # exact: integer-valued sums
        out = 2 * ones_signed - const
        if saturate == "final":
            width = check_acc_bits(n_bits, acc_bits)
            out = np.clip(out, -(1 << (width - 1)), (1 << (width - 1)) - 1)
        return out.T

    def stats(self) -> dict[str, int]:
        """Counters and resident entries per kind (for logs and tests)."""
        with self._lock:
            kinds = Counter(kind for kind, _ in self._memo.values())
            return {
                "hits": self.hits,
                "misses": self.misses,
                "layers": kinds["layer-coeff"],
                "bit_tables": kinds["bit-table"],
                "derived": kinds["derived"],
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
