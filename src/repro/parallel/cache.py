"""The process cache of schedules, up/down tables and weight coefficient loads.

Inference reuses the same conv weights for every batch, but the
reference kernel (:func:`repro.core.mvm.sc_matmul`) rebuilds the whole
FSM bookkeeping — appearance-count coefficients (the per-select-line
totals implied by the weight's down-counter load) and the operand bit
expansion — on every call.  For a process that serves thousands of
batches this is the dominant redundant cost, so the process keeps one
:class:`ScheduleCache` (:func:`get_worker_cache`), from which every
proposed-SC and conventional-SC engine call draws, on any thread:

* ``bit_table(n_bits)`` — the ``(N, 2**N)`` MSB-first bit matrix of
  every representable offset word (the compiled-artifact format).  Its
  transpose, one contiguous ``N``-wide bit row per word, is what the
  kernel gathers from, so expanding a batch is one row gather instead
  of ``N`` shifted masks over int64 temporaries;
* ``ud_table`` / ``sng_ud_table`` — the conventional-SC up/down tables
  of the shared-LFSR pair and of the registry SNG families;
* ``layer_coeff(w_int, n_bits)`` — the sign-folded coefficient matrix
  of a whole weight matrix, keyed by *content* (SHA-1 of the weight
  bytes) so that mutating weights in place — fine-tuning — can never
  serve stale schedules.

:meth:`ScheduleCache.sc_matmul` combines these into a fast path that is
**bit-exact** with :func:`repro.core.mvm.sc_matmul`: all operands are
small integers, so the GEMM is exact (every partial sum is an
exactly-representable integer) and the result is identical down to the
last LSB under any summation order.  The rule that makes it so: a
layer's coefficients are float32 only when every partial sum stays
below ``2**24`` (bounded by twice the row's total coefficient mass),
and float64 — exact below ``2**53`` — otherwise.  The parity fleet in
``tests/parallel`` pins this.

The layout is chosen for the gather: bit rows land contiguously in a
``(P, D*N)`` operand matrix, and the coefficients are re-laid to match
it once per layer, so no per-batch transposing copy of the ``N``-fold
bit expansion is ever made.  Both derived layouts are memoized under
``("rows", N, dtype)`` and ``("layer", digest, shape, N, dtype)``, in
an LRU bounded at four times ``max_layers``; steady-state inference
derives each once, and dropping the cache drops them with the entries
they were derived from.

The cache is a *thin view* over an optional compiled artifact
(:mod:`repro.parallel.compiled`): every lookup first checks the
read-only precompiled entry set attached process-wide, and only falls
back to an on-demand build — counted in ``stats()["rebuilds"]`` — on
artifact miss.  Compiled entries are served directly from the artifact
buffer (zero copies into the local dicts), so poisoning the local cache
can never corrupt them and a dropped cache comes back warm.

Shard threads share one cache, so one lock per cache guards the memo
bookkeeping: lookups, inserts, LRU evictions and the counters.  The
gather and the GEMM of :meth:`ScheduleCache.sc_matmul` run outside it.
A module lock guards creating and dropping the process cache itself, so
threads that start on a dropped cache all get the same new one.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

from repro.core.accumulator import check_acc_bits
from repro.core.fsm_generator import coefficient_vector
from repro.core.mvm import sc_matmul
from repro.keys import (
    bit_table_key,
    layer_digest,
    sng_ud_table_key,
    ud_table_key,
)
from repro.sc.encoding import bits_msb_first, signed_range
from repro.sc.lfsr import _ALT_TAPS, MAXIMAL_TAPS

__all__ = [
    "CachePoisonedError",
    "ScheduleCache",
    "active_compiled",
    "attach_compiled",
    "detach_compiled",
    "get_worker_cache",
    "reset_worker_cache",
]

#: float32 GEMM is exact while every partial sum stays below 2**24.
_F32_EXACT_BOUND = 1 << 24


def _d_major(coeff_t: np.ndarray, n_bits: int) -> np.ndarray:
    """Re-lay ``(M, N*D)`` select-line-major coefficients as ``(D*N, M)``.

    Row ``d*N + n`` holds select line ``n`` of operand ``d``: the column
    order of a gathered ``(P, D, N)`` bit block.
    """
    m, nd = coeff_t.shape
    by_line = coeff_t.reshape(m, n_bits, nd // n_bits)  # (M, N, D)
    return np.ascontiguousarray(by_line.transpose(2, 1, 0)).reshape(nd, m)


def _locked(method):
    """Run a memo method under its cache's lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class CachePoisonedError(RuntimeError):
    """A cached schedule failed validation and must not be served.

    Raised either because :meth:`ScheduleCache.poison` was called
    (fault injection in tests) or because a cached layer entry no
    longer has the shape its key promises.  The call fails loudly
    instead of computing on garbage; :func:`reset_worker_cache` drops
    the cache, and the next call rebuilds from the weights.
    """


class ScheduleCache:
    """Process-local memo of schedules and per-layer coefficient loads.

    ``compiled`` (a :class:`repro.parallel.compiled.CompiledSchedules`,
    duck-typed) turns the cache into a thin view: lookups consult the
    precompiled read-only artifact before building anything.  Entries
    served from the artifact count as hits (plus ``compiled_hits``);
    every on-demand build increments ``rebuilds`` — the counter the
    compiled-path tests and the benchmark's traced runs watch.  The
    memo methods hold ``_lock`` for their bookkeeping, so threads may
    share one cache; layer entries and derived layouts are built outside
    it, so no lookup waits on another thread's build.
    """

    def __init__(self, max_layers: int = 32, hook=None, compiled=None) -> None:
        self.max_layers = max_layers
        self.compiled = compiled
        self._bit_tables: dict[int, np.ndarray] = {}
        self._layers: OrderedDict[tuple, tuple] = OrderedDict()
        self._ud_tables: dict[str, np.ndarray] = {}
        #: derived layouts of cached arrays (the bit-row table, the
        #: operand-major coefficients), keyed by ``("rows", ...)`` /
        #: ``("layer", ...)`` content keys; see :meth:`sc_matmul`.
        self._derived: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._poisoned = False
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.compiled_hits = 0
        #: optional observer ``hook("hit" | "miss")`` fired on every
        #: layer-coefficient lookup.  The serving layer points this at
        #: its metrics counters; it must be cheap and must not raise.
        self.hook = hook

    def _compiled_get(self, key: str, shape: tuple, dtype) -> np.ndarray | None:
        """One validated artifact lookup (``None`` = miss, build locally).

        Shape/dtype mismatch is treated as a miss rather than an error:
        a foreign or stale entry must degrade to an on-demand build, not
        fail every call.
        """
        if self.compiled is None:
            return None
        entry = self.compiled.get(key)
        if entry is None or entry.shape != shape or entry.dtype != np.dtype(dtype):
            return None
        return entry

    # -- small schedule memos ---------------------------------------------
    @_locked
    def bit_table(self, n_bits: int) -> np.ndarray:
        """``(N, 2**N)`` float32 matrix: row ``n`` = MSB-first bit ``n``."""
        table = self._bit_tables.get(n_bits)
        if table is not None:
            return table
        table = self._compiled_get(
            bit_table_key(n_bits), (n_bits, 1 << n_bits), np.float32
        )
        if table is not None:
            self.compiled_hits += 1
            return table
        self.rebuilds += 1
        words = np.arange(1 << n_bits, dtype=np.int64)
        table = np.ascontiguousarray(bits_msb_first(words, n_bits).T.astype(np.float32))
        self._bit_tables[n_bits] = table
        return table

    @_locked
    def ud_table(self, n_bits: int, seed_w: int, seed_x: int) -> np.ndarray:
        """Shared-LFSR XNOR up/down table for a conventional SC multiply.

        Keyed with the full orbit fingerprint (seeds *and* tap
        polynomials) via :func:`repro.keys.ud_table_key`, so the
        compiled artifact and the in-process ``lfsr_ud_table`` LRU
        describe the same content with one hash.
        """
        if self._poisoned:
            raise CachePoisonedError("schedule cache was poisoned; drop and rebuild")
        key = ud_table_key(
            n_bits, seed_w, seed_x, MAXIMAL_TAPS[n_bits], _ALT_TAPS[n_bits]
        )
        table = self._ud_tables.get(key)
        if table is not None:
            self.hits += 1
            if self.hook is not None:
                self.hook("hit")
            return table
        side = (1 << n_bits) + 1
        table = self._compiled_get(key, (side, side), np.int64)
        if table is not None:
            self.hits += 1
            self.compiled_hits += 1
            if self.hook is not None:
                self.hook("hit")
            return table
        self.misses += 1
        self.rebuilds += 1
        if self.hook is not None:
            self.hook("miss")
        from repro.sc.multipliers import lfsr_ud_table

        table = lfsr_ud_table(n_bits, seed_w, seed_x)
        self._ud_tables[key] = table
        return table

    @_locked
    def sng_ud_table(self, generator: str, n_bits: int) -> np.ndarray:
        """Generator-built XNOR up/down table (non-default SNG families).

        Same contract and bookkeeping as :meth:`ud_table`, keyed by the
        registered family's content fingerprint via
        :func:`repro.keys.sng_ud_table_key`, so compiled artifacts and
        the in-process memo agree across family revisions.
        """
        if self._poisoned:
            raise CachePoisonedError("schedule cache was poisoned; drop and rebuild")
        from repro.sc.generators import generator_fingerprint, generator_ud_table

        key = sng_ud_table_key(n_bits, generator_fingerprint(generator, n_bits))
        table = self._ud_tables.get(key)
        if table is not None:
            self.hits += 1
            if self.hook is not None:
                self.hook("hit")
            return table
        side = (1 << n_bits) + 1
        table = self._compiled_get(key, (side, side), np.int64)
        if table is not None:
            self.hits += 1
            self.compiled_hits += 1
            if self.hook is not None:
                self.hook("hit")
            return table
        self.misses += 1
        self.rebuilds += 1
        if self.hook is not None:
            self.hook("miss")
        table = generator_ud_table(generator, n_bits)
        table.setflags(write=False)
        self._ud_tables[key] = table
        return table

    # -- per-layer coefficient loads --------------------------------------
    def layer_coeff(self, w_int: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Sign-folded coefficient matrix + count constant for ``w_int``.

        Returns ``(coeff_t, const)`` where ``coeff_t`` has shape
        ``(M, N*D)`` in select-line-major order (float32 when exact,
        float64 otherwise) and ``const[m] = sum_d sign*|w|`` is the
        subtraction constant of the closed form.  Keyed by weight
        *content*, so in-place weight updates miss and recompute.
        """
        return self._layer_lookup(np.asarray(w_int), n_bits)[1]

    def _layer_lookup(self, w_int: np.ndarray, n_bits: int) -> tuple[tuple, tuple]:
        """:meth:`layer_coeff` plus the content key (derived-layout memo).

        The lock covers the lookup and the insert; a miss builds the
        entry between them, so other threads' lookups never wait on it.
        """
        w = np.ascontiguousarray(np.asarray(w_int, dtype=np.int64))
        digest = layer_digest(w, n_bits)
        key = (digest, w.shape, int(n_bits))
        with self._lock:
            if self._poisoned:
                raise CachePoisonedError("schedule cache was poisoned; drop and rebuild")
            cached = self._layers.get(key)
            if cached is not None:
                self._validate_entry(key, cached)
                self._layers.move_to_end(key)
                self.hits += 1
                if self.hook is not None:
                    self.hook("hit")
                return key, cached
            if self.compiled is not None:
                coeff_t = self.compiled.get(f"{digest}/coeff")
                const = self.compiled.get(f"{digest}/const")
                entry = (coeff_t, const) if coeff_t is not None and const is not None else None
                if entry is not None and self._entry_ok(key, entry):
                    self.hits += 1
                    self.compiled_hits += 1
                    if self.hook is not None:
                        self.hook("hit")
                    return key, entry
            self.misses += 1
            self.rebuilds += 1
            if self.hook is not None:
                self.hook("miss")
        m, d = w.shape
        k = np.abs(w)
        sign = np.where(w < 0, -1, 1).astype(np.int64)
        coeff = coefficient_vector(k, n_bits) * sign[:, :, None]  # (M, D, N)
        coeff_t = np.ascontiguousarray(coeff.transpose(0, 2, 1)).reshape(m, d * n_bits)
        # Exactness bound for float32 GEMM: any partial sum is at most
        # the total coefficient mass sum_{d,n} |coeff| per output row.
        mass = int(np.abs(coeff_t).sum(axis=1).max()) if coeff_t.size else 0
        dtype = np.float32 if 2 * mass < _F32_EXACT_BOUND else np.float64
        coeff_t = coeff_t.astype(dtype)
        coeff_t.setflags(write=False)
        const = (sign * k).sum(axis=1)
        const.setflags(write=False)
        entry = (coeff_t, const)
        with self._lock:
            self._layers[key] = entry
            while len(self._layers) > self.max_layers:
                self._layers.popitem(last=False)
        return key, entry

    def _derived_array(self, key: tuple, build) -> np.ndarray:
        """Memoized derived layout, built by ``build()`` on a miss.

        Keyed by the source entry's *content* key, so an evicted-and-
        rebuilt entry maps back to the same derived array.  LRU-bounded
        at four times the layer bound.  Built outside the lock, like a
        layer entry.
        """
        with self._lock:
            hit = self._derived.get(key)
            if hit is not None:
                self._derived.move_to_end(key)
                return hit
        arr = build()
        with self._lock:
            self._derived[key] = arr
            while len(self._derived) > 4 * self.max_layers:
                self._derived.popitem(last=False)
        return arr

    @staticmethod
    def _entry_ok(key, entry) -> bool:
        """Does ``entry`` have the shape its key promises?"""
        _, (m, d), n_bits = key
        return (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], np.ndarray)
            and isinstance(entry[1], np.ndarray)
            and entry[0].shape == (m, d * n_bits)
            and entry[1].shape == (m,)
        )

    @classmethod
    def _validate_entry(cls, key, entry) -> None:
        """Check a cached entry still has the shape its key promises.

        Every lookup re-validates, so a poisoned or torn entry is
        detected the moment it would be served — never silently folded
        into a result.  (Compiled-artifact entries are instead checked
        with :meth:`_entry_ok` and treated as a *miss* on mismatch — a
        foreign artifact must degrade, not fail every call.)
        """
        if not cls._entry_ok(key, entry):
            raise CachePoisonedError(
                f"cached schedule for layer {key[0][:12]} failed shape validation"
            )

    @_locked
    def poison(self) -> None:
        """Deliberately corrupt the cache (fault injection only).

        Every cached layer entry is replaced with garbage and a sticky
        flag makes the next lookup raise :class:`CachePoisonedError`
        even if the cache is empty — the poisoning is always
        *detectable*, so a call fails loudly rather than serving a
        wrong result.
        """
        for key in list(self._layers):
            self._layers[key] = ("poisoned", "poisoned")
        self._poisoned = True

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
        once (per ``N``, per layer key) and memoized.  The GEMM is exact:
        the cached coefficients are float32 only when every partial sum
        is below ``2**24`` (float64 otherwise).
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
        key, (coeff_t, const) = self._layer_lookup(w, n_bits)
        dtype = coeff_t.dtype
        coeff = self._derived_array(
            ("layer",) + key + (dtype.str,), lambda: _d_major(coeff_t, n_bits)
        )
        rows = self._derived_array(
            ("rows", int(n_bits), dtype.str),
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

    @_locked
    def stats(self) -> dict[str, int]:
        """Cache effectiveness counters (for logs and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "layers": len(self._layers),
            "bit_tables": len(self._bit_tables),
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

    The live process cache (if any) starts viewing it immediately, and
    any precompiled LFSR orbits are adopted into the
    :mod:`repro.sc.lfsr` orbit cache so sequence generation gathers
    instead of stepping.
    """
    global _PROCESS_COMPILED
    with _WORKER_CACHE_LOCK:
        _PROCESS_COMPILED = compiled
        if _WORKER_CACHE is not None:
            _WORKER_CACHE.compiled = compiled
    if compiled is not None:
        from repro.sc.lfsr import adopt_orbit

        for n_bits, taps, orbit in compiled.orbit_entries():
            adopt_orbit(n_bits, taps, orbit)


def detach_compiled() -> None:
    """Drop the process-global compiled artifact (fallback/tests)."""
    global _PROCESS_COMPILED
    with _WORKER_CACHE_LOCK:
        _PROCESS_COMPILED = None
        if _WORKER_CACHE is not None:
            _WORKER_CACHE.compiled = None


def active_compiled():
    """The process-global compiled artifact, or ``None``."""
    return _PROCESS_COMPILED


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
    """Drop the process-global cache (tests, a poisoned cache)."""
    global _WORKER_CACHE
    with _WORKER_CACHE_LOCK:
        _WORKER_CACHE = None
