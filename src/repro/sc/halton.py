"""Halton low-discrepancy sequences.

Alaghi & Hayes (DATE'14, ref. [2] of the paper) drive SC circuits from
Halton sequences instead of LFSRs.  Fig. 5 of the paper evaluates this
"Halton" baseline with base 2 for the ``x`` operand and base 3 for the
``w`` operand (footnote 3).

The radical-inverse function in base ``b`` reverses the base-``b``
digits of the index around the radix point; for base 2 this is the van
der Corput sequence, whose ``n``-bit integer form is the bit-reversed
counter (:func:`bit_reverse`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "radical_inverse",
    "halton_sequence",
    "halton_int_sequence",
    "bit_reverse",
    "HaltonSource",
]


def radical_inverse(index, base: int):
    """Radical inverse of ``index`` in the given ``base``.

    Accepts scalars or integer arrays; returns floats in ``[0, 1)``.

    >>> [radical_inverse(i, 2) for i in range(4)]
    [0.0, 0.5, 0.25, 0.75]
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("index must be nonnegative")
    result = np.zeros(idx.shape, dtype=np.float64)
    frac = 1.0 / base
    rem = idx.copy()
    while rem.max(initial=0) > 0:
        result = result + (rem % base) * frac
        rem = rem // base
        frac /= base
    return float(result) if np.isscalar(index) or result.ndim == 0 else result


def halton_sequence(length: int, base: int, start: int = 0) -> np.ndarray:
    """First ``length`` Halton points in ``[0, 1)`` for ``base``."""
    return radical_inverse(np.arange(start, start + length), base)


def halton_int_sequence(length: int, base: int, n_bits: int, start: int = 0) -> np.ndarray:
    """Halton points scaled to ``n_bits``-bit integers in ``[0, 2**n)``.

    These play the role of the LFSR output in a comparator-based SNG: a
    stream bit is 1 when the scaled Halton number is below the input
    magnitude.
    """
    pts = halton_sequence(length, base, start=start)
    return np.floor(pts * (1 << n_bits)).astype(np.int64)


def bit_reverse(values: np.ndarray, n_bits: int) -> np.ndarray:
    """The low ``n_bits`` bits of each integer, reversed.

    Applied to a counter ``0 .. 2**n - 1`` this is the base-2 Halton
    (van der Corput) sequence as ``n``-bit integers, a permutation.
    """
    out = np.zeros_like(values)
    v = values.copy()
    for _ in range(n_bits):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


class HaltonSource:
    """Streaming Halton generator with the random-source interface.

    Emits ``n_bits``-bit integers; interchangeable with
    :class:`repro.sc.lfsr.Lfsr` inside an SNG.
    """

    def __init__(self, n_bits: int, base: int = 2, start: int = 0) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        self.n_bits = n_bits
        self.base = base
        self._start = start
        self._index = start

    def reset(self) -> None:
        """Rewind to the starting index."""
        self._index = self._start

    def step(self) -> int:
        """Return the next scaled Halton integer."""
        val = int(radical_inverse(self._index, self.base) * (1 << self.n_bits))
        self._index += 1
        return val

    def sequence(self, length: int) -> np.ndarray:
        """Return the next ``length`` values (advances the index)."""
        out = halton_int_sequence(length, self.base, self.n_bits, start=self._index)
        self._index += length
        return out
