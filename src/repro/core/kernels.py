"""Vectorized cycle kernels for the BISC simulators.

Every cycle-accurate model in :mod:`repro.core` used to advance one
Python-level clock per iteration — correct, but three orders of
magnitude slower than the arithmetic it models.  This module generates
whole FSM+MUX *schedules* as numpy arrays instead: the select sequence
``N-1-ctz(c)`` for a block of cycles is a pure array computation, the
emitted bits for any operand are a gather against that schedule, and a
per-cycle saturating accumulation is a ``cumsum`` plus a bounds check
(:func:`repro.sc.counters.saturating_walk`) that falls back to the
exact stepped path only for rows that actually overflow.

The guarantee, enforced by ``tests/core/test_kernel_parity.py``: the
vectorized kernels are **bit-exact** with the stepped simulators
(exhaustively at small N, property-based at N=8-10).  The reordering is
the same one the paper's own Section 2.5 bit-parallel construction
relies on — the stream *value* carries the result, so producing and
consuming many bits per step changes nothing.
"""

from __future__ import annotations

import numpy as np

from repro.core.fsm_generator import (
    coefficient_vector,
    prefix_ones,
    select_index,
)
from repro.sc.counters import saturating_walk
from repro.sc.encoding import bits_msb_first, signed_range, to_offset_binary

__all__ = [
    "select_schedule",
    "stream_matrix",
    "mvm_mac_kernel",
    "bit_parallel_mac_kernel",
    "truncated_matmul_kernel",
    "saturating_walk",
    "prefix_ones",
]


def select_schedule(length: int, n_bits: int, start_cycle: int = 1) -> np.ndarray:
    """MUX select indices for a block of ``length`` cycles (-1 = none).

    Matches :class:`repro.core.fsm_generator.FsmMuxGenerator` exactly,
    including the wrap of the FSM cycle register back to 1 after
    ``2**n_bits`` — so a schedule can start anywhere and span any number
    of periods.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    period = 1 << n_bits
    if not 1 <= start_cycle <= period:
        raise ValueError(f"start_cycle must be in [1, {period}]")
    cycles = (start_cycle - 1 + np.arange(length, dtype=np.int64)) % period + 1
    return cycles if length == 0 else np.asarray(select_index(cycles, n_bits), dtype=np.int64)


def stream_matrix(values, length: int, n_bits: int, start_cycle: int = 1) -> np.ndarray:
    """FSM+MUX stream bits for many operands over a block of cycles.

    ``values`` are unsigned words (any shape ``S``); the result has
    shape ``S + (length,)`` with ``out[..., t]`` the bit emitted at the
    ``t``-th cycle of the block.  One gather instead of a Python loop
    per (operand, cycle) pair.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << n_bits)):
        raise ValueError(f"values out of {n_bits}-bit unsigned range")
    sel = select_schedule(length, n_bits, start_cycle)
    bits = (arr[..., None] >> np.maximum(sel, 0)) & 1
    return np.where(sel >= 0, bits, 0).astype(np.int64)


def mvm_mac_kernel(
    acc_values: np.ndarray,
    w_int: int,
    x_offsets: np.ndarray,
    n_bits: int,
    lo: int,
    hi: int,
    start_cycle: int = 1,
) -> np.ndarray:
    """One BISC-MVM ``mac`` call over all lanes as array ops.

    Exactly the per-cycle semantics of :class:`repro.core.mvm.BiscMvm`:
    the shared FSM streams each lane's offset word for ``|w_int|``
    cycles from a freshly reset schedule, the weight sign is XOR-ed in,
    and every lane accumulator saturates *per cycle* to ``[lo, hi]``.
    Returns the new accumulator values (bit-exact; lanes whose walk
    saturates take the stepped fallback inside
    :func:`~repro.sc.counters.saturating_walk`).
    """
    k = abs(int(w_int))
    bits = stream_matrix(x_offsets, k, n_bits, start_cycle)
    if w_int < 0:
        bits = 1 - bits
    return saturating_walk(acc_values, 2 * bits - 1, lo, hi)


def bit_parallel_mac_kernel(w_int: int, x_offset: int, n_bits: int, b: int) -> tuple[int, int]:
    """Total accumulator delta and cycle count of one bit-parallel MAC.

    The column contributions of :class:`repro.core.bit_parallel
    .BitParallelMac` telescope: summing ``2 * (P[hi_j] - P[lo_j]) -
    rows_j`` over all columns gives ``2 * P[|w|] - |w|`` — the whole
    multiply collapses to one closed-form evaluation, with the latency
    ``ceil(|w| / b)`` unchanged.
    """
    k = abs(int(w_int))
    ones = int(prefix_ones(x_offset, k, n_bits))
    delta = 2 * ones - k
    if w_int < 0:
        delta = -delta
    return delta, -(-k // b)


def truncated_matmul_kernel(
    w_int: np.ndarray,
    x_int: np.ndarray,
    n_bits: int,
    cycle_budget: int,
    rescale: bool = True,
) -> np.ndarray:
    """Matrix product under a per-multiply cycle budget, as one matmul.

    Functionally the same computation as broadcasting
    :func:`repro.core.energy_quality.truncated_multiply` over ``(M, D,
    P)`` and summing over ``D`` — but the ``(M, D, P, N)`` intermediate
    never materializes.  Folding the per-term sign and rescale factor
    into the appearance-count coefficients turns the reduction into
    ``(M, D*N) @ (D*N, P)``, the same trick :func:`repro.core.mvm
    .sc_matmul` uses for the untruncated product.

    With ``rescale=False`` everything is integer-valued and the result
    is exact; with ``rescale=True`` the ``|w|/cycles`` factors make the
    result float and agreement with the broadcast form is to float64
    round-off (the summation order differs).
    """
    if cycle_budget < 0:
        raise ValueError("cycle_budget must be >= 0")
    w = np.asarray(w_int, dtype=np.int64)
    x = np.asarray(x_int, dtype=np.int64)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {w.shape} @ {x.shape}")
    lo, hi = signed_range(n_bits)
    for name, arr in (("w_int", w), ("x_int", x)):
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(f"{name} out of {n_bits}-bit signed range")

    m, d = w.shape
    _, p = x.shape
    k = np.abs(w)  # (M, D)
    c = np.minimum(k, cycle_budget)  # cycles actually run
    sign = np.where(w < 0, -1.0, 1.0)
    if rescale:
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(c > 0, k / np.maximum(c, 1), 0.0)
    else:
        factor = (c > 0).astype(np.float64)
    weight = sign * factor  # (M, D) per-term scaling

    coeff = coefficient_vector(c, n_bits).astype(np.float64)  # (M, D, N)
    coeff *= weight[:, :, None]
    bits = bits_msb_first(to_offset_binary(x, n_bits), n_bits)  # (D, P, N)
    bits_flat = np.ascontiguousarray(np.moveaxis(bits, -1, 1)).reshape(
        d * n_bits, p
    ).astype(np.float64)

    ones_weighted = coeff.reshape(m, d * n_bits) @ bits_flat  # (M, P)
    out = 2.0 * ones_weighted - (weight * c).sum(axis=1)[:, None]
    return out
