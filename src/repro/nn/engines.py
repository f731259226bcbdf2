"""Pluggable multiply engines for convolution layers.

Each engine computes ``Y = W @ X`` for float matrices but with the
arithmetic of a particular MAC-array design:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mvm import sc_matmul
from repro.sc.encoding import quantize_signed, to_offset_binary
from repro.sc.multipliers import lfsr_ud_table, select_low_bias_seeds

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


@dataclass
class MatmulEngine:
    """Base class carrying the common quantization parameters.

    ``generator`` selects the SNG family (:mod:`repro.sc.generators`
    registry key) feeding the conventional SC path.  It is a *spec
    string*, so it pickles with the engine and travels to pool workers
    inside the network skeleton; each process resolves it locally.
    ``None`` and ``"lfsr"`` both keep the shared-LFSR fast path
    byte-identical.  Engines without stochastic number sources
    (float/fixed/proposed — the proposed multiplier is deterministic by
    construction) carry the field but ignore it.
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
            # fail fast in the parent process: an unknown generator
            # should never be discovered inside a pool worker
            from repro.sc.generators import resolve_generator

            resolve_generator(self.generator)

    # -- helpers shared by integer engines --------------------------------
    def _quantize(self, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w_int = quantize_signed(np.asarray(w, dtype=np.float64) / self.w_scale, self.n_bits)
        x_int = quantize_signed(np.asarray(x, dtype=np.float64) / self.x_scale, self.n_bits)
        return w_int, x_int

    def _dequantize(self, acc_int: np.ndarray) -> np.ndarray:
        return acc_int.astype(np.float64) / (1 << (self.n_bits - 1)) * self.w_scale * self.x_scale

    @property
    def _acc_limits(self) -> tuple[int, int]:
        width = self.n_bits + self.acc_bits
        return -(1 << (width - 1)), (1 << (width - 1)) - 1

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Compute ``W @ X`` under this engine's arithmetic."""
        raise NotImplementedError


class FloatEngine(MatmulEngine):
    """Exact floating-point matmul (reference arithmetic)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "float"

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
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

    def __init__(self, rounding: str = "nearest", chunk: int = 64, **kwargs) -> None:
        super().__init__(**kwargs)
        if rounding not in ("nearest", "zero", "floor"):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        self.rounding = rounding
        self.chunk = chunk
        self.name = "fixed"

    def _reduce(self, prod: np.ndarray) -> np.ndarray:
        shift = self.n_bits - 1
        if self.rounding == "nearest":
            return (prod + (1 << (shift - 1))) >> shift
        if self.rounding == "zero":
            return np.sign(prod) * (np.abs(prod) >> shift)
        return prod >> shift

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        w_int, x_int = self._quantize(w, x)
        m, d = w_int.shape
        _, p = x_int.shape
        lo, hi = self._acc_limits
        acc = np.zeros((m, p), dtype=np.int64)
        if self.saturate == "term":
            for j in range(d):
                term = self._reduce(w_int[:, j : j + 1] * x_int[j : j + 1, :])
                acc = np.clip(acc + term, lo, hi)
        else:
            for j0 in range(0, d, self.chunk):
                j1 = min(j0 + self.chunk, d)
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

    The table is built lazily on first use and, like
    :class:`ProposedScEngine`'s schedules, is served by the per-worker
    :class:`~repro.parallel.cache.ScheduleCache` when ``cache`` is set —
    including out of a precompiled artifact.  Neither the cache nor the
    table survives pickling, so spawning a pool ships only the seeds.

    When ``generator`` names a non-default registry family, the table
    is instead built from that family's stream matrices
    (:func:`repro.sc.generators.generator_ud_table`); the memo carries
    the generator tag so a per-request or per-worker override rebuilds
    rather than serving a stale family's table.
    """

    def __init__(
        self,
        seed_w: int | None = None,
        seed_x: int | None = None,
        chunk: int = 16,
        cache=None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.chunk = chunk
        self.name = "lfsr-sc"
        if seed_w is None or seed_x is None:
            auto_w, auto_x = select_low_bias_seeds(self.n_bits)
            seed_w = auto_w if seed_w is None else seed_w
            seed_x = auto_x if seed_x is None else seed_x
        self.seed_w = int(seed_w)
        self.seed_x = int(seed_x)
        self.cache = cache
        self._ud_table: np.ndarray | None = None
        self._ud_table_gen: str | None = None

    @property
    def _generator_key(self) -> str | None:
        """Non-default generator spec, or ``None`` for the LFSR fast path."""
        return self.generator if self.generator not in (None, "lfsr") else None

    @property
    def ud_table(self) -> np.ndarray:
        """Up/down count per pair == 2 * product in output LSBs (lazy)."""
        gen = self._generator_key
        if self._ud_table is None or self._ud_table_gen != gen:
            if gen is not None:
                if self.cache is not None:
                    self._ud_table = self.cache.sng_ud_table(gen, self.n_bits)
                else:
                    from repro.sc.generators import generator_ud_table

                    self._ud_table = generator_ud_table(gen, self.n_bits)
            elif self.cache is not None:
                self._ud_table = self.cache.ud_table(self.n_bits, self.seed_w, self.seed_x)
            else:
                self._ud_table = lfsr_ud_table(self.n_bits, self.seed_w, self.seed_x)
            self._ud_table_gen = gen
        return self._ud_table

    def __getstate__(self):
        state = dict(self.__dict__)
        state["cache"] = None
        state["_ud_table"] = None
        state["_ud_table_gen"] = None
        return state

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        w_int, x_int = self._quantize(w, x)
        w_off = to_offset_binary(w_int, self.n_bits)
        x_off = to_offset_binary(x_int, self.n_bits)
        table = self.ud_table
        m, d = w_off.shape
        _, p = x_off.shape
        # Raw up/down counts are double-scale: widen limits by one bit.
        lo, hi = self._acc_limits
        lo, hi = 2 * lo, 2 * hi
        acc = np.zeros((m, p), dtype=np.int64)
        if self.saturate == "term":
            for j in range(d):
                term = table[w_off[:, j : j + 1], x_off[j : j + 1, :]]
                acc = np.clip(acc + term, lo, hi)
        else:
            for j0 in range(0, d, self.chunk):
                j1 = min(j0 + self.chunk, d)
                terms = table[w_off[:, j0:j1, None], x_off[None, j0:j1, :]]
                acc = acc + terms.sum(axis=1)
            if self.saturate == "final":
                acc = np.clip(acc, lo, hi)
        # halve the raw count (hardware drops the counter LSB at readout)
        return self._dequantize(acc) / 2.0


class ProposedScEngine(MatmulEngine):
    """The paper's BISC-MVM (deterministic, low-discrepancy SC).

    ``cache`` optionally points at a
    :class:`repro.parallel.cache.ScheduleCache`; when set, the matmul
    goes through the cached fast path (bit-exact with
    :func:`repro.core.mvm.sc_matmul` — the parity fleet pins this).
    The batched inference engine installs one cache per worker process;
    the attribute is dropped on pickling so a cache is never shipped
    across process boundaries.
    """

    def __init__(self, cache=None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "proposed-sc"
        self.cache = cache

    def __getstate__(self):
        state = dict(self.__dict__)
        state["cache"] = None
        return state

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        w_int, x_int = self._quantize(w, x)
        if self.cache is not None:
            acc = self.cache.sc_matmul(
                w_int, x_int, self.n_bits, self.acc_bits, saturate=self.saturate
            )
        else:
            acc = sc_matmul(w_int, x_int, self.n_bits, self.acc_bits, saturate=self.saturate)
        return self._dequantize(acc)


class TruncatedScEngine(MatmulEngine):
    """The proposed engine under a per-multiply cycle budget.

    Implements the dynamic energy-quality trade-off at the CNN level:
    every multiply stops after at most ``cycle_budget`` cycles (the
    weight's down-counter load is capped) and the partial count is
    rescaled, as in :mod:`repro.core.energy_quality`.  ``avg_cycles``
    on real weights gives the realized energy proxy.
    """

    def __init__(self, cycle_budget: int = 8, rescale: bool = True, **kwargs) -> None:
        super().__init__(**kwargs)
        if cycle_budget < 0:
            raise ValueError("cycle_budget must be >= 0")
        self.cycle_budget = cycle_budget
        self.rescale = rescale
        self.name = f"truncated-sc-{cycle_budget}"

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        from repro.core.kernels import truncated_matmul_kernel

        w_int, x_int = self._quantize(w, x)
        acc = truncated_matmul_kernel(w_int, x_int, self.n_bits, self.cycle_budget, self.rescale)
        width = self.n_bits + self.acc_bits
        acc = np.clip(acc, -(1 << (width - 1)), (1 << (width - 1)) - 1)
        return self._dequantize(acc)

    def avg_cycles(self, w: np.ndarray) -> float:
        """Realized average cycles per multiply under the budget."""
        w_int = quantize_signed(np.asarray(w, dtype=np.float64) / self.w_scale, self.n_bits)
        return float(np.minimum(np.abs(w_int), self.cycle_budget).mean())


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
