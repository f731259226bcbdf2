"""BISC-MVM: the vectorized SC-MAC array (Section 3.1, Fig. 3).

A BISC-MVM holds ``p`` lanes.  All lanes share one FSM (mux control)
and one down counter (the weight ``w`` is common), so a scalar-vector
multiply ``w * x_vec`` finishes for every lane simultaneously in
``|2**(N-1) w|`` cycles; feeding a sequence of ``(w_i, x_vec_i)`` pairs
accumulates ``sum_i w_i x_vec_i`` with no extra hardware.  Sharing
causes *no* accuracy loss because the stream value, not its sampling,
carries the result — the contrast with conventional SC the paper
emphasizes.

Two implementations are provided:

* :class:`BiscMvm` — cycle-accurate, saturating per clock; the unit a
  hardware designer would instantiate.
* :func:`sc_matmul` — a fast closed-form numpy engine computing whole
  matrix products with identical arithmetic (saturation per term or
  final), used by the CNN experiments.
"""

from __future__ import annotations

import numpy as np

from repro.core.accumulator import (
    SaturatingAccumulatorArray,
    check_acc_bits,
    check_lane_vector,
)
from repro.core.fsm_generator import FsmMuxGenerator, coefficient_vector
from repro.core.kernels import mvm_mac_kernel
from repro.core.signed import bisc_multiply_signed
from repro.sc.encoding import bits_msb_first, signed_range, to_offset_binary

__all__ = ["BiscMvm", "sc_matmul", "sc_matmul_reference", "mvm_cycles"]


class BiscMvm:
    """Cycle-accurate BISC-MVM with ``p`` lanes.

    >>> mvm = BiscMvm(n_bits=4, p=2)
    >>> mvm.mac(-8, [7, -8])   # w = -1.0 times the lane vector
    >>> mvm.read().tolist()
    [-8, 8]
    """

    def __init__(self, n_bits: int, p: int, acc_bits: int = 2) -> None:
        self.n_bits = n_bits
        self.p = p
        self.acc_bits = acc_bits
        self._fsm = FsmMuxGenerator(n_bits)  # shared by all lanes
        self._acc = SaturatingAccumulatorArray(p, n_bits, acc_bits)
        self.cycles = 0

    def reset(self) -> None:
        """Clear accumulators, cycle count and the shared FSM."""
        self._fsm.reset()
        self._acc.reset()
        self.cycles = 0

    def read(self) -> np.ndarray:
        """Lane accumulator values, in output-LSB units."""
        return self._acc.values.copy()

    def _check_mac_operands(self, w_int: int, x_vec) -> np.ndarray:
        lo, hi = signed_range(self.n_bits)
        if not lo <= w_int <= hi:
            raise ValueError(f"w_int out of {self.n_bits}-bit signed range [{lo}, {hi}]")
        return check_lane_vector(x_vec, self.p, "x_vec")

    def mac(self, w_int: int, x_vec) -> None:
        """Accumulate ``w * x_vec`` across all lanes; ``|w|`` cycles.

        The FSM restarts with each loaded weight (required for the
        partial-sum property); the shared down counter is modelled by
        the block length.  The whole call is one vectorized kernel
        (:func:`repro.core.kernels.mvm_mac_kernel`) — bit-exact with
        :meth:`mac_stepped` including per-cycle lane saturation.
        """
        x_vec = self._check_mac_operands(w_int, x_vec)
        offsets = to_offset_binary(x_vec, self.n_bits)
        self._acc.values = mvm_mac_kernel(
            self._acc.values,
            w_int,
            offsets,
            self.n_bits,
            self._acc.lo,
            self._acc.hi,
            start_cycle=self._fsm.cycle,
        )
        self.cycles += abs(w_int)
        self._fsm.reset()

    def mac_stepped(self, w_int: int, x_vec) -> None:
        """Reference one-clock-per-iteration path (differential tests)."""
        x_vec = self._check_mac_operands(w_int, x_vec)
        offsets = to_offset_binary(x_vec, self.n_bits)
        sign_w = 1 if w_int < 0 else 0
        for _ in range(abs(w_int)):  # the shared down counter
            sel = self._fsm.step_select()
            bits = np.zeros(self.p, dtype=np.int64) if sel < 0 else (offsets >> sel) & 1
            self._acc.step(bits ^ sign_w)
            self.cycles += 1
        self._fsm.reset()

    def matvec(self, w_row, x_mat) -> np.ndarray:
        """Dot product ``sum_d w[d] * X[d, :]`` over all lanes.

        ``w_row`` has shape ``(D,)`` and ``x_mat`` shape ``(D, p)``;
        this is exactly Fig. 3(b) with the accumulators reset first.
        """
        w_row = np.asarray(w_row, dtype=np.int64)
        x_mat = np.asarray(x_mat, dtype=np.int64)
        if x_mat.ndim != 2 or x_mat.shape != (w_row.size, self.p):
            raise ValueError(
                f"x_mat must have shape ({w_row.size}, {self.p}), got {x_mat.shape}"
            )
        self.reset()
        for w, x_vec in zip(w_row, x_mat):
            self.mac(int(w), x_vec)
        return self.read()


def mvm_cycles(w_ints, n_bits: int, bit_parallel: int = 1) -> int:
    """Total cycles to accumulate a weight sequence: ``sum ceil(|w|/b)``."""
    w = np.asarray(w_ints, dtype=np.int64)
    lo, hi = signed_range(n_bits)
    if w.size and (w.min() < lo or w.max() > hi):
        raise ValueError(f"weights out of {n_bits}-bit signed range")
    return int((-(-np.abs(w) // bit_parallel)).sum())


def sc_matmul(
    w_int: np.ndarray,
    x_int: np.ndarray,
    n_bits: int,
    acc_bits: int = 2,
    saturate: str | None = "term",
) -> np.ndarray:
    """Matrix product with BISC-MVM arithmetic, fully vectorized.

    Parameters
    ----------
    w_int:
        Weights, shape ``(M, D)``, ``n_bits``-bit two's complement.
    x_int:
        Data, shape ``(D, P)``, same format.
    saturate:
        ``"term"`` (default) saturates the ``N + A``-bit accumulator
        after every weight term — the faithful model of the up/down
        counter across a dot product;
        ``"final"`` clips only the final result (fastest, exact when no
        intermediate overflow occurs); ``None`` disables clipping.

    Returns
    -------
    ``(M, P)`` int64 products in output-LSB (``2**-(N-1)``) units.

    Notes
    -----
    Per weight term the lane result is
    ``sign(w) * (2 * c(|w|) . bits(offset(x)) - |w|)`` where ``c(k)`` is
    the appearance-count vector ``round(k/2**i)``.  Stacking ``c`` over
    terms turns the whole accumulation into one matrix product, which is
    why the functional simulation of a full CNN layer is a single
    matmul.
    """
    w = np.asarray(w_int, dtype=np.int64)
    x = np.asarray(x_int, dtype=np.int64)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {w.shape} @ {x.shape}")
    lo, hi = signed_range(n_bits)
    for name, arr in (("w_int", w), ("x_int", x)):
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(f"{name} out of {n_bits}-bit signed range")
    if saturate not in ("term", "final", None):
        raise ValueError(f"unknown saturate mode: {saturate!r}")

    m, d = w.shape
    _, p = x.shape
    k = np.abs(w)  # (M, D) down-counter loads
    sign = np.where(w < 0, -1, 1).astype(np.int64)
    coeff = coefficient_vector(k, n_bits)  # (M, D, N)
    bits = bits_msb_first(to_offset_binary(x, n_bits), n_bits)  # (D, P, N)
    bits_t = np.ascontiguousarray(np.moveaxis(bits, -1, 1)).astype(np.float64)  # (D, N, P)

    width = check_acc_bits(n_bits, acc_bits)
    clip_lo, clip_hi = -(1 << (width - 1)), (1 << (width - 1)) - 1

    if saturate == "term":
        acc = np.zeros((m, p), dtype=np.int64)
        for j in range(d):
            ones = np.rint(coeff[:, j, :].astype(np.float64) @ bits_t[j]).astype(np.int64)
            term = sign[:, j : j + 1] * (2 * ones - k[:, j : j + 1])
            acc = np.clip(acc + term, clip_lo, clip_hi)
        return acc

    # One big matmul: fold sign into the coefficients.
    coeff_signed = (coeff * sign[:, :, None]).reshape(m, d * n_bits).astype(np.float64)
    bits_flat = bits_t.reshape(d * n_bits, p)
    ones_signed = np.rint(coeff_signed @ bits_flat).astype(np.int64)
    out = 2 * ones_signed - (sign * k).sum(axis=1)[:, None]
    if saturate == "final":
        out = np.clip(out, clip_lo, clip_hi)
    return out


def sc_matmul_reference(w_int: np.ndarray, x_int: np.ndarray, n_bits: int) -> np.ndarray:
    """Unsaturated reference: elementwise scalar multiplies, exact sum.

    Used by tests to pin :func:`sc_matmul` against
    :func:`repro.core.signed.bisc_multiply_signed`.
    """
    w = np.asarray(w_int, dtype=np.int64)
    x = np.asarray(x_int, dtype=np.int64)
    prods = bisc_multiply_signed(w[:, :, None], x[None, :, :], n_bits)
    return prods.sum(axis=1)
