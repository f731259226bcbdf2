"""The FSM+MUX low-discrepancy bitstream generator (Section 2.3).

Given an ``N``-bit word ``x = x_{N-1} ... x_0`` (MSB first), the
generator emits, at 1-indexed cycle ``c``, the bit ``x_{N-1-ctz(c)}``
where ``ctz`` counts trailing zeros — i.e. bit ``x_{N-i}`` first appears
at cycle ``2**(i-1)`` and then every ``2**i`` cycles, exactly the
pattern of Fig. 2(a).  When ``ctz(c) >= N`` (once per ``2**N`` cycles)
no input bit is selected and a 0 is emitted.

The defining property (provable by the appearance-count identity) is
that every prefix sum of the stream equals

    P_k = sum_{i=1..N} round(k / 2**i) * x_{N-i}          (half-up),

which approximates ``x * k / 2**N`` within ``N/2`` — so the stream's
value *is* the multiply result, making the SC multiplier itself
low-discrepancy, not just the SNG.

All functions here operate on **unsigned magnitudes**; the signed
multiplier (:mod:`repro.core.signed`) feeds them offset-binary words.
"""

from __future__ import annotations

import numpy as np

from repro.sc.encoding import bits_msb_first

__all__ = [
    "select_index",
    "mux_select_sequence",
    "appearance_count",
    "stream_bits",
    "prefix_ones",
    "coefficient_vector",
    "FsmMuxGenerator",
]


def _ctz(c) -> np.ndarray:
    """Count of trailing zeros of positive integers (vectorized)."""
    c = np.asarray(c, dtype=np.int64)
    if c.size and c.min() < 1:
        raise ValueError("cycle index must be >= 1")
    # ctz via isolating the lowest set bit and taking its log2.
    low = c & -c
    return np.round(np.log2(low.astype(np.float64))).astype(np.int64)


def select_index(cycle, n_bits: int):
    """MUX select at 1-indexed ``cycle``: bit position, or -1 for none.

    Returns the *bit position* ``N-1-ctz(cycle)`` within the input word
    (MSB = position ``N-1``); -1 when the cycle selects no bit (a 0 is
    emitted).

    >>> [select_index(c, 4) for c in range(1, 9)]
    [3, 2, 3, 1, 3, 2, 3, 0]
    """
    tz = _ctz(cycle)
    idx = n_bits - 1 - tz
    idx = np.where(idx < 0, -1, idx)
    return int(idx) if np.isscalar(cycle) or idx.ndim == 0 else idx


def mux_select_sequence(length: int, n_bits: int) -> np.ndarray:
    """Select indices for cycles ``1 .. length`` (-1 where none)."""
    return select_index(np.arange(1, length + 1), n_bits)


def appearance_count(k, i: int) -> np.ndarray:
    """How many times bit ``x_{N-i}`` appears in the first ``k`` cycles.

    Equals ``round(k / 2**i)`` with round-half-up, by the pattern
    "first at ``2**(i-1)``, then every ``2**i`` cycles":
    ``floor((k + 2**(i-1)) / 2**i)``.
    """
    if i < 1:
        raise ValueError("i is 1-indexed (1 = MSB)")
    k = np.asarray(k, dtype=np.int64)
    out = (k + (1 << (i - 1))) >> i
    return int(out) if out.ndim == 0 else out


def stream_bits(value: int, length: int, n_bits: int) -> np.ndarray:
    """The first ``length`` stream bits for an unsigned ``value``.

    >>> stream_bits(0b1000, 8, 4).tolist()
    [1, 0, 1, 0, 1, 0, 1, 0]
    """
    if not 0 <= value < (1 << n_bits):
        raise ValueError(f"value {value} out of {n_bits}-bit unsigned range")
    sel = mux_select_sequence(length, n_bits)
    bits = np.where(sel >= 0, (value >> np.maximum(sel, 0)) & 1, 0)
    return bits.astype(np.int64)


def coefficient_vector(k, n_bits: int) -> np.ndarray:
    """Appearance counts ``round(k/2**i)`` for ``i = 1 .. N``.

    For scalar ``k`` returns shape ``(N,)``; for an array of shape ``S``
    returns ``S + (N,)``.  Entry ``i-1`` multiplies bit ``x_{N-i}``
    (i.e. the output is ordered MSB-coefficient first, matching
    :func:`repro.sc.encoding.bits_msb_first`).
    """
    k = np.asarray(k, dtype=np.int64)
    i = np.arange(1, n_bits + 1, dtype=np.int64)
    out = (k[..., None] + (1 << (i - 1))) >> i
    return out


def prefix_ones(value, k, n_bits: int):
    """Closed-form ones count of the stream for ``value`` after ``k`` cycles.

    ``P_k = sum_i round(k/2**i) * x_{N-i}``.  Broadcasts over ``value``
    and ``k``.

    >>> int(prefix_ones(0b1111, 8, 4))
    8
    """
    bits = bits_msb_first(value, n_bits)  # (..., N), MSB first
    coeff = coefficient_vector(k, n_bits)  # (..., N)
    out = (bits * coeff).sum(axis=-1)
    return int(out) if out.ndim == 0 else out


class FsmMuxGenerator:
    """Cycle-accurate FSM+MUX generator (one register, one mux).

    The FSM is just an ``N``-bit binary counter whose trailing-zero
    count drives the mux select — the hardware of Fig. 2(a).  The
    generator is deterministic and resettable; a BISC-MVM shares one
    instance across all lanes.
    """

    def __init__(self, n_bits: int) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        self.n_bits = n_bits
        self._cycle = 1  # 1-indexed cycle counter (the FSM state)

    @property
    def cycle(self) -> int:
        """1-indexed index of the *next* emitted bit."""
        return self._cycle

    def reset(self) -> None:
        """Restart the pattern (done when a new weight is loaded)."""
        self._cycle = 1

    def advance(self, cycles: int) -> None:
        """Jump the FSM forward ``cycles`` clocks without emitting bits.

        Leaves the register exactly where ``cycles`` calls of
        :meth:`step_select` would — the state update of the vectorized
        kernels, which compute the emitted bits separately as a batch.
        """
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        period = 1 << self.n_bits
        self._cycle = (self._cycle - 1 + cycles) % period + 1

    def step_select(self) -> int:
        """Advance one clock; return the mux select (-1 for none)."""
        sel = select_index(self._cycle, self.n_bits)
        self._cycle += 1
        if self._cycle > (1 << self.n_bits):
            self._cycle = 1
        return sel

    def step(self, value: int) -> int:
        """Advance one clock; return the emitted stream bit for ``value``."""
        sel = self.step_select()
        return 0 if sel < 0 else (value >> sel) & 1

    def stream(self, value: int, length: int) -> np.ndarray:
        """Emit ``length`` bits (advances the FSM)."""
        return np.array([self.step(value) for _ in range(length)], dtype=np.int64)
