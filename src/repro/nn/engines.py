"""Pluggable multiply engines for convolution layers.

Each engine computes ``Y = W @ X`` for real-valued matrices (``X`` may
also arrive as offset words, below) but with the arithmetic of a
particular MAC-array design:

* :class:`FloatEngine` — exact float (the original "floating-point
  net" of the paper's training runs).
* :class:`FixedPointEngine` — N-bit two's-complement operands, product
  truncated to output LSBs before accumulation, saturating ``N+A``-bit
  accumulator; the paper's "fixed-point binary" baseline.
* :class:`LfsrScEngine` — conventional bipolar SC with shared
  LFSR-based SNGs (one per operand for the whole array), XNOR multiply
  over ``2**N`` cycles, saturating up/down accumulation; the paper's
  "conventional SC" baseline.
* :class:`ProposedScEngine` — the paper's BISC-MVM
  (:func:`repro.core.mvm.sc_matmul`).

Scaling contract
----------------
An engine is constructed with static per-layer scales ``w_scale`` and
``x_scale`` (powers of two, chosen by calibration): real operands are
divided by their scale, quantized to N bits, multiplied in integer
domain and the result mapped back as
``y = acc_int / 2**(N-1) * w_scale * x_scale``.  This mirrors the
paper's "scale the input feature map before/after convolution by 128"
treatment of CIFAR-10.

LFSR-SC weight-row gather
-------------------------
:class:`LfsrScEngine` looks each operand pair's up/down count up in a
``(S, S)`` table, ``S = 2**N + 1``.  Instead of indexing the table pair
by pair, it derives per layer and per SNG family the weight rows ``R``,
stored operand-major as ``(D*S, M)``: row ``j*S + x`` holds
``table[w_off[:, j], x]``, the ``M`` counts of term ``j`` at word ``x``.
Then ``acc[p, m] = sum_j R[j*S + x_off[j, p], m]``: one ``np.take`` of
``R`` along axis 0 with the ``(D, P)`` index ``x_off +
S*arange(D)[:, None]`` copies one contiguous ``M``-wide row per (term,
pixel) into a ``(D, P, M)`` block, and one sum over ``D`` (the outer
axis, so each term adds a contiguous ``(P, M)`` plane) gives the
``(P, M)`` accumulator, transposed into the C-ordered ``(M, P)``
result every engine returns.  Each index entry is read once, not once
per output channel.

* **Column slabs.**  The product is gathered and summed in slabs of
  ``P' = _BLOCK_BOUND // (M*D)`` columns (at least one), each index
  built from its slab of the offset words in one pass, so a
  ``(D, P', M)`` block of at most ``2**20`` elements (2 MiB of int16)
  is summed while it is still in cache; the last slab may be narrower.
  The bound is measured (EXPERIMENTS.md, "Operand-major LFSR-SC weight
  rows"): with two shards running at once, as served, it beats
  ``2**18`` on the digits net's 8-image shapes, and it is up to 1.7x
  faster than ``2**24`` on the shapes net's 16-image layers, where
  ``2**18`` would be faster still on one thread.
* **Dtype rule.**  Counts lie in ``[-2**N, 2**N]``, so ``R`` is int16
  while ``2**N < 2**15`` (every N <= 14, which covers every table that
  fits in memory) and int32 beyond.  The sum over ``D`` is int32 while
  ``D * 2**N < 2**31`` and int64 beyond.  Both follow from the table and
  the shape; there is no knob.  ``saturate="term"`` takes its terms
  from the same block and keeps its per-term clip in int64, because
  that clip depends on order.
* **Memo.**  ``R`` is kept on the engine, one entry per family, keyed
  by what fixes the table (the family spec and N, so ``None`` and
  ``"lfsr"`` share one entry) and by the weight content.  A weight
  edit or a family switch therefore never serves stale rows, and a warm
  call builds nothing.  ``R`` is read-only, like every array the process
  cache hands out, so no caller can write into a later answer.  On the
  digits net with all five families the memo holds 8.7 MB.  Pickling
  or copying an engine drops it.
* There is no ``chunk=`` parameter any more: only ``saturate="term"``
  loops over ``D``.

Integer-native conv layers
--------------------------
In the paper's accelerator a feature map sits in the tile buffer as
N-bit offset-binary words that the BISC-MVM reads directly (Sec. 2.4,
Fig. 4), so each value is quantized once.  The conv layers work the
same way:

* **Word format.**  :meth:`MatmulEngine.encode` maps the real layer
  input ``x`` (NCHW) to ``quantize_signed(x, N, scale=x_scale) +
  2**(N-1)``: the non-negative offset-binary word of each value, in
  ``[0, 2**N - 1]``, held as int16 (int32 for ``N > 15``).  The word of
  real 0 is ``2**(N-1)`` (:attr:`MatmulEngine.zero_word`).
* **Layout.**  :class:`~repro.nn.layers.conv.Conv2D` im2cols the words
  (:func:`repro.nn.im2col.im2col` with ``fill=zero_word``, so padding
  is real 0) into the usual ``(D, P)`` column matrix, C-contiguous, and
  hands it to :meth:`MatmulEngine.matmul`.  An integer ``x`` dtype marks
  such pre-encoded words; a float ``x`` is encoded first, so callers
  with real-valued operands see no change.
* **One range check.**  :func:`~repro.sc.encoding.quantize_signed`,
  called once per layer input, is the one finiteness and range check:
  NaN and +-Inf raise, and every finite value saturates to the rail,
  also one that overflows when scaled.  Words are in range by
  construction.  The fixed-point and lfsr-sc kernels use them unchecked;
  proposed-sc and truncated-sc pass them, made signed, to kernels with a
  signed API (:meth:`~repro.parallel.cache.ScheduleCache.sc_matmul`,
  :func:`~repro.core.kernels.truncated_matmul_kernel`), whose range
  check of both operands runs on every call.
* **Weight memo.**  :meth:`MatmulEngine.quantize_weights` quantizes a
  layer's weights once and memoizes them on the engine, keyed by the
  weight *content*: a private float64 copy of the weights, compared
  with each call's weights (``np.array_equal``).  An in-place edit
  (fine-tuning) therefore misses and re-quantizes.

Stateless calls
---------------
``matmul(w, x, generator=None)`` takes the SNG family as an argument
(``None`` = the engine's ``generator``); no caller sets and restores an
engine attribute, so calls on one engine may overlap.  Schedules and
up/down tables come from the process
:class:`~repro.parallel.cache.ScheduleCache` (``get_worker_cache()``),
including out of a precompiled artifact.  The memos on an engine (the
quantized weights, and the LFSR-SC weight rows per family) are
replaced whole, so an overlapping call reads either the old entry or
the new one and checks its own weights against it either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.cache import get_worker_cache
from repro.sc.encoding import quantize_signed
from repro.sc.generators import DEFAULT_GENERATOR
from repro.sc.multipliers import lfsr_ud_table  # noqa: F401 - perfbench/tracing.py patches it

__all__ = [
    "MatmulEngine",
    "FloatEngine",
    "FixedPointEngine",
    "LfsrScEngine",
    "ProposedScEngine",
    "TruncatedScEngine",
    "make_engine",
]

#: Saturation modes accepted by the integer engines.
_SAT_MODES = ("term", "final", None)

#: :class:`LfsrScEngine` dtype bounds.  Up/down counts lie in
#: ``[-2**N, 2**N]``: weight rows are int16 while ``2**N`` is below
#: ``_I16_ROW_BOUND`` and int32 beyond; a ``D``-term sum is int32 while
#: ``D * 2**N`` is below ``_I32_SUM_BOUND`` and int64 beyond.
_I16_ROW_BOUND = 1 << 15
_I32_SUM_BOUND = 1 << 31
#: Largest ``(D, P', M)`` gather block, in elements (2 MiB of int16):
#: the product is gathered and summed in column slabs of at most this
#: size, so each slab is summed while it is still in cache (measured:
#: EXPERIMENTS.md, "Operand-major LFSR-SC weight rows").
_BLOCK_BOUND = 1 << 20
#: :class:`FixedPointEngine` sums its reduced products over ``D`` in
#: slabs of this many terms.
_FIXED_CHUNK = 64


def _word_dtype(n_bits: int):
    """Offset words are int16 while ``2**N - 1`` fits, int32 beyond."""
    return np.int16 if n_bits < 16 else np.int32


@dataclass
class MatmulEngine:
    """Base class carrying the common quantization parameters.

    ``generator`` selects the default SNG family (:mod:`repro.sc.generators`
    registry key) feeding the conventional SC path; a ``matmul`` call
    may name another.  It is a *spec string*, so it pickles and copies
    with the engine and is resolved where the table is built.  ``None``
    is the registry default, the shared-LFSR pair ``"lfsr"``.
    Engines without stochastic number sources (float/fixed/proposed —
    the proposed multiplier is deterministic by construction) carry the
    field but ignore it.
    """

    n_bits: int = 8
    acc_bits: int = 2
    w_scale: float = 1.0
    x_scale: float = 1.0
    saturate: str | None = "final"
    generator: str | None = None

    #: short identifier used by experiment tables
    name: str = "base"

    def __post_init__(self) -> None:
        if self.saturate not in _SAT_MODES:
            raise ValueError(f"unknown saturate mode {self.saturate!r}")
        if self.w_scale <= 0 or self.x_scale <= 0:
            raise ValueError("scales must be positive")
        if self.generator is not None:
            # fail fast at construction: an unknown generator should
            # never be discovered at the first matmul
            from repro.sc.generators import resolve_generator

            resolve_generator(self.generator)
        #: ``(float64 copy of the weights, their signed N-bit integers)``
        self._w_memo: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_w_memo"] = None
        return state

    # -- the integer-native operand format ---------------------------------
    @property
    def zero_word(self) -> int:
        """The offset word of real 0 (an im2col's padding)."""
        return 1 << (self.n_bits - 1)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Offset-binary words of the real operand ``x``, any shape.

        ``quantize_signed(x, N, scale=x_scale) + 2**(N-1)``: the one
        finiteness and range check of a layer input (module docstring,
        "Integer-native conv layers").
        """
        q = quantize_signed(x, self.n_bits, scale=self.x_scale)
        return np.add(q, self.zero_word, dtype=_word_dtype(self.n_bits))

    def quantize_weights(self, w: np.ndarray) -> np.ndarray:
        """Signed N-bit integers of ``w / w_scale``, memoized by weight content."""
        memo = self._w_memo
        if memo is not None and np.array_equal(memo[0], w):
            return memo[1]
        key = np.array(w, dtype=np.float64)  # a copy: in-place edits must miss
        w_int = quantize_signed(key, self.n_bits, scale=self.w_scale)
        w_int.setflags(write=False)
        self._w_memo = (key, w_int)
        return w_int

    def _words(self, x: np.ndarray) -> np.ndarray:
        """``x`` as offset words: an integer dtype is taken as pre-encoded."""
        x = np.asarray(x)
        return x if x.dtype.kind in "iu" else self.encode(x)

    def _dequantize(self, acc_int: np.ndarray) -> np.ndarray:
        return acc_int.astype(np.float64) / (1 << (self.n_bits - 1)) * self.w_scale * self.x_scale

    @property
    def _acc_limits(self) -> tuple[int, int]:
        width = self.n_bits + self.acc_bits
        return -(1 << (width - 1)), (1 << (width - 1)) - 1

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        """Compute ``W @ X`` under this engine's arithmetic.

        ``x`` is real-valued, or offset words from :meth:`encode` when
        its dtype is integer.  ``generator`` names the SNG family of
        this call (``None`` = the engine's own ``generator``); only
        :class:`LfsrScEngine` reads it.
        """
        raise NotImplementedError


class FloatEngine(MatmulEngine):
    """Exact floating-point matmul (reference arithmetic).

    Its operands stay real: :meth:`encode` is the identity and an
    im2col pads with 0.0.
    """

    zero_word = 0.0

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "float"

    def encode(self, x: np.ndarray) -> np.ndarray:
        return x

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        return np.asarray(w, dtype=np.float64) @ np.asarray(x, dtype=np.float64)


class FixedPointEngine(MatmulEngine):
    """N-bit fixed-point MAC with truncate-before-accumulate.

    The product of two N-bit operands is reduced to output LSBs
    (dropping the low ``N-1`` product bits, Section 4.2) before entering
    the saturating accumulator.  ``rounding`` selects how the dropped
    bits are treated:

    * ``"nearest"`` (default) — round half up, the near-unbiased choice
      a competent fixed-point design makes;
    * ``"zero"`` — round toward zero (sign-magnitude truncation);
    * ``"floor"`` — two's-complement bit dropping, whose -0.5 LSB/term
      bias grows with the reduction depth (kept for the accumulator
      ablation; it visibly collapses accuracy).
    """

    def __init__(self, rounding: str = "nearest", **kwargs) -> None:
        super().__init__(**kwargs)
        if rounding not in ("nearest", "zero", "floor"):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        self.rounding = rounding
        self.name = "fixed"

    def _reduce(self, prod: np.ndarray) -> np.ndarray:
        shift = self.n_bits - 1
        if self.rounding == "nearest":
            return (prod + (1 << (shift - 1))) >> shift
        if self.rounding == "zero":
            return np.sign(prod) * (np.abs(prod) >> shift)
        return prod >> shift

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        w_int = self.quantize_weights(w)
        x_int = np.subtract(self._words(x), self.zero_word, dtype=np.int64)
        m, d = w_int.shape
        _, p = x_int.shape
        lo, hi = self._acc_limits
        acc = np.zeros((m, p), dtype=np.int64)
        if self.saturate == "term":
            for j in range(d):
                term = self._reduce(w_int[:, j : j + 1] * x_int[j : j + 1, :])
                acc = np.clip(acc + term, lo, hi)
        else:
            for j0 in range(0, d, _FIXED_CHUNK):
                j1 = min(j0 + _FIXED_CHUNK, d)
                terms = self._reduce(w_int[:, j0:j1, None] * x_int[None, j0:j1, :])
                acc = acc + terms.sum(axis=1)
            if self.saturate == "final":
                acc = np.clip(acc, lo, hi)
        return self._dequantize(acc)


class LfsrScEngine(MatmulEngine):
    """Conventional bipolar SC MAC array with shared LFSR SNGs.

    A product is an XNOR of two ``2**N``-bit comparator streams; the
    up/down count over the window is precomputed for *all* operand pairs
    into a ``(2**N+1, 2**N+1)`` lookup table (both SNGs are shared
    across the array, so every MAC sees the same two sequences — the
    accuracy-vs-cost trade-off of Section 1).  The raw count is twice
    the product in output LSBs; accumulation halves at readout.

    The table of the call's SNG family (:meth:`family`; by default the
    registry's ``lfsr`` pair) comes from the process
    :class:`~repro.parallel.cache.ScheduleCache`, including out of a
    precompiled artifact; a miss builds it from that family's stream
    matrices (:func:`repro.sc.generators.generator_ud_table`).

    ``matmul`` never indexes the table pair by pair: it gathers from
    weight rows derived once per layer and family (module docstring:
    "LFSR-SC weight-row gather").  The rows are memoized on the engine,
    keyed by the family spec and N, and by the weight content, so a
    family switch or an in-place weight edit never serves stale rows.
    The memo does not survive pickling or copying.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "lfsr-sc"
        self._rows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def family(self, generator: str | None = None) -> str:
        """The SNG family of a call: ``generator``, else the engine's, else the default."""
        return generator or self.generator or DEFAULT_GENERATOR

    @property
    def ud_table(self) -> np.ndarray:
        """Up/down count per pair == 2 * product in output LSBs."""
        return get_worker_cache().sng_ud_table(self.family(), self.n_bits)

    def _weight_rows(self, w_off: np.ndarray, family: str) -> np.ndarray:
        """Read-only ``R`` of ``w_off`` under the table of ``family`` (memoized)."""
        key = (family, self.n_bits)
        hit = self._rows.get(key)
        if hit is not None and np.array_equal(hit[0], w_off):
            return hit[1]
        table = get_worker_cache().sng_ud_table(family, self.n_bits)
        dtype = np.int16 if 1 << self.n_bits < _I16_ROW_BOUND else np.int32
        # row j*S + x holds table[w_off[:, j], x]: the M counts of term j at word x
        rows = np.ascontiguousarray(table[w_off.T].transpose(0, 2, 1), dtype=dtype)
        rows = rows.reshape(-1, w_off.shape[0])
        rows.setflags(write=False)
        self._rows[key] = (w_off, rows)
        return rows

    def __getstate__(self):
        state = super().__getstate__()
        state["_rows"] = {}
        return state

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        w_off = self.quantize_weights(w) + self.zero_word
        x_off = self._words(x)
        m, d = w_off.shape
        if x_off.shape[0] != d:
            raise ValueError(f"shape mismatch: {w_off.shape} @ {x_off.shape}")
        p = x_off.shape[1]
        rows = self._weight_rows(w_off, self.family(generator))
        segments = ((1 << self.n_bits) + 1) * np.arange(d)[:, None]
        # Raw up/down counts are double-scale: widen limits by one bit.
        lo, hi = self._acc_limits
        lo, hi = 2 * lo, 2 * hi
        wide = self.saturate == "term" or d << self.n_bits >= _I32_SUM_BOUND
        acc = np.zeros((p, m), dtype=np.int64 if wide else np.int32)
        step = max(1, _BLOCK_BOUND // max(1, m * d))
        for p0 in range(0, p, step):
            # the gather index: term j reads segment j of R
            index = np.add(x_off[:, p0 : p0 + step], segments, dtype=np.intp)
            # (D, P', M): one contiguous M-wide row per (term, pixel)
            block = np.take(rows, index, axis=0)
            out = acc[p0 : p0 + step]
            if self.saturate == "term":
                # the per-term clip depends on order: add term by term
                for term in block:
                    np.clip(out + term, lo, hi, out=out)
            else:
                block.sum(axis=0, dtype=acc.dtype, out=out)
        if self.saturate == "final":
            acc = np.clip(acc, lo, hi)
        # (M, P) in C order, as callers reshape it; halve the raw count
        # (hardware drops the counter LSB at readout)
        return self._dequantize(np.ascontiguousarray(acc.T)) / 2.0


class ProposedScEngine(MatmulEngine):
    """The paper's BISC-MVM (deterministic, low-discrepancy SC).

    The product runs on the process
    :class:`~repro.parallel.cache.ScheduleCache`'s gather-and-GEMM
    kernel, bit-exact with :func:`repro.core.mvm.sc_matmul` (the parity
    fleet pins this); ``saturate="term"`` delegates to that reference.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "proposed-sc"

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        x_int = self._words(x) - self.zero_word  # signed, in the words' dtype
        acc = get_worker_cache().sc_matmul(
            self.quantize_weights(w), x_int, self.n_bits, self.acc_bits, saturate=self.saturate
        )
        return self._dequantize(acc)


class TruncatedScEngine(MatmulEngine):
    """The proposed engine under a per-multiply cycle budget.

    Implements the dynamic energy-quality trade-off at the CNN level:
    every multiply stops after at most ``cycle_budget`` cycles (the
    weight's down-counter load is capped) and the partial count is
    rescaled, as in :mod:`repro.core.energy_quality`.  ``avg_cycles``
    on real weights gives the realized energy proxy.  The sum is always
    clipped to the accumulator once, so ``saturate`` must be ``"final"``.
    """

    def __init__(self, cycle_budget: int = 8, rescale: bool = True, **kwargs) -> None:
        super().__init__(**kwargs)
        if self.saturate != "final":
            raise ValueError(
                f"truncated-sc clips its final sum only; saturate={self.saturate!r} "
                "is not supported"
            )
        if cycle_budget < 0:
            raise ValueError("cycle_budget must be >= 0")
        self.cycle_budget = cycle_budget
        self.rescale = rescale
        self.name = f"truncated-sc-{cycle_budget}"

    def matmul(self, w: np.ndarray, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        from repro.core.kernels import truncated_matmul_kernel

        x_int = self._words(x) - self.zero_word
        acc = truncated_matmul_kernel(
            self.quantize_weights(w), x_int, self.n_bits, self.cycle_budget, self.rescale
        )
        return self._dequantize(np.clip(acc, *self._acc_limits))

    def avg_cycles(self, w: np.ndarray) -> float:
        """Realized average cycles per multiply under the budget."""
        return float(np.minimum(np.abs(self.quantize_weights(w)), self.cycle_budget).mean())


_ENGINES = {
    "float": FloatEngine,
    "fixed": FixedPointEngine,
    "lfsr-sc": LfsrScEngine,
    "proposed-sc": ProposedScEngine,
    "truncated-sc": TruncatedScEngine,
}


def make_engine(kind: str, **kwargs) -> MatmulEngine:
    """Engine factory: ``float``, ``fixed``, ``lfsr-sc`` or ``proposed-sc``."""
    try:
        cls = _ENGINES[kind]
    except KeyError:
        raise ValueError(f"unknown engine kind {kind!r}; choose from {sorted(_ENGINES)}") from None
    return cls(**kwargs)
