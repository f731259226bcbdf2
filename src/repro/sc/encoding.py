"""Fixed-point encodings used throughout the reproduction.

The paper (Section 2) works with two number representations:

* **Signed fixed point** ("binary", two's complement): an ``n``-bit word
  whose integer value ``v`` lies in ``[-2**(n-1), 2**(n-1) - 1]`` and
  represents the real number ``v / 2**(n-1)`` in ``[-1, 1)``.  ``n`` is
  the *multiplier precision* of the paper and includes the sign bit.
* **Unipolar** stochastic encoding: an ``n``-bit magnitude ``k`` in
  ``[0, 2**n - 1]`` representing ``k / 2**n`` in ``[0, 1)``; the value of
  a stochastic number equals its frequency of 1s.

The *bipolar* stochastic encoding maps a signed value ``x`` in
``[-1, 1]`` to the signal probability ``(x + 1) / 2``.  In two's
complement that probability numerator is exactly the *offset-binary*
word obtained by flipping the sign bit (Section 2.4 of the paper), which
is why :func:`to_offset_binary` is central to the signed multiplier.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Encoding",
    "UNIPOLAR",
    "BIPOLAR",
    "quantize_signed",
    "dequantize_signed",
    "quantize_unipolar",
    "dequantize_unipolar",
    "to_offset_binary",
    "from_offset_binary",
    "bits_msb_first",
    "pack_bits_msb_first",
    "signed_range",
    "unipolar_range",
]


class Encoding(enum.Enum):
    """Stochastic-number encoding: value range of a bitstream."""

    #: Value in ``[0, 1]``; value == probability of a 1.
    UNIPOLAR = "unipolar"
    #: Value in ``[-1, 1]``; value == 2 * probability - 1.
    BIPOLAR = "bipolar"


UNIPOLAR = Encoding.UNIPOLAR
BIPOLAR = Encoding.BIPOLAR


def signed_range(n_bits: int) -> tuple[int, int]:
    """Inclusive integer range of an ``n_bits`` two's-complement word."""
    _check_bits(n_bits)
    half = 1 << (n_bits - 1)
    return -half, half - 1


def unipolar_range(n_bits: int) -> tuple[int, int]:
    """Inclusive integer range of an ``n_bits`` unipolar magnitude."""
    _check_bits(n_bits)
    return 0, (1 << n_bits) - 1


def _check_bits(n_bits: int) -> None:
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")


def quantize_signed(x, n_bits: int, scale: float = 1.0):
    """Quantize real values ``x / scale`` in ``[-1, 1)`` to ``n_bits`` two's complement.

    Values are rounded to the nearest representable multiple of
    ``2**-(n_bits-1)`` and saturated to the representable range.  Accepts
    scalars or numpy arrays; returns ``int`` / ``int64`` arrays.

    NaN and +-Inf raise ``ValueError``.  Every finite value saturates,
    including one whose ``x / scale`` or ``x / scale * 2**(n_bits-1)``
    overflows float64: it lands on the rail of its sign, with no
    ``RuntimeWarning``.

    >>> quantize_signed(0.5, 4)
    4
    >>> quantize_signed(-1.0, 4)
    -8
    >>> quantize_signed(1.7e308, 4, scale=0.5)
    7
    """
    _check_bits(n_bits)
    lo, hi = signed_range(n_bits)
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("cannot quantize non-finite values")
    with np.errstate(over="ignore"):  # a finite overflow is +-inf, clipped to the rail
        if scale != 1.0:
            arr = arr / scale
        q = np.clip(np.rint(arr * (1 << (n_bits - 1))), lo, hi).astype(np.int64)
    return int(q) if np.isscalar(x) or q.ndim == 0 else q


def dequantize_signed(v, n_bits: int):
    """Map ``n_bits`` two's-complement integers back to real values."""
    _check_bits(n_bits)
    scale = float(1 << (n_bits - 1))
    out = np.asarray(v, dtype=np.float64) / scale
    return float(out) if np.isscalar(v) or out.ndim == 0 else out


def quantize_unipolar(x, n_bits: int):
    """Quantize real values in ``[0, 1)`` to an ``n_bits`` magnitude."""
    _check_bits(n_bits)
    lo, hi = unipolar_range(n_bits)
    scale = 1 << n_bits
    q = np.clip(np.rint(np.asarray(x, dtype=np.float64) * scale), lo, hi)
    q = q.astype(np.int64)
    return int(q) if np.isscalar(x) or q.ndim == 0 else q


def dequantize_unipolar(k, n_bits: int):
    """Map ``n_bits`` unipolar magnitudes back to real values."""
    _check_bits(n_bits)
    scale = float(1 << n_bits)
    out = np.asarray(k, dtype=np.float64) / scale
    return float(out) if np.isscalar(k) or out.ndim == 0 else out


def to_offset_binary(v, n_bits: int):
    """Flip the sign bit: two's complement -> offset binary.

    Maps the signed integer ``v`` in ``[-2**(n-1), 2**(n-1)-1]`` to the
    unsigned word ``v + 2**(n-1)`` in ``[0, 2**n - 1]``.  This is the
    "sign bit of input x is flipped" step of Section 2.4: the offset
    word, interpreted as a unipolar magnitude, is exactly the bipolar
    signal probability numerator of ``v``.
    """
    _check_bits(n_bits)
    lo, hi = signed_range(n_bits)
    arr = np.asarray(v, dtype=np.int64)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"value out of {n_bits}-bit signed range: {v!r}")
    out = arr + (1 << (n_bits - 1))
    return int(out) if np.isscalar(v) or out.ndim == 0 else out


def from_offset_binary(u, n_bits: int):
    """Inverse of :func:`to_offset_binary`."""
    _check_bits(n_bits)
    lo, hi = unipolar_range(n_bits)
    arr = np.asarray(u, dtype=np.int64)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"value out of {n_bits}-bit unsigned range: {u!r}")
    out = arr - (1 << (n_bits - 1))
    return int(out) if np.isscalar(u) or out.ndim == 0 else out


def bits_msb_first(value, n_bits: int) -> np.ndarray:
    """Unpack unsigned integers into bit arrays, MSB first.

    For a scalar, returns shape ``(n_bits,)``; for an array of shape
    ``S``, returns shape ``S + (n_bits,)``.  Bit ``j`` of the output is
    bit ``n_bits - 1 - j`` of the input word, matching the paper's
    ``x_{N-1} ... x_0`` indexing where ``x_{N-1}`` is the MSB.
    """
    _check_bits(n_bits)
    arr = np.asarray(value, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << n_bits)):
        raise ValueError(f"value out of {n_bits}-bit unsigned range: {value!r}")
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.int64)
    bits = (arr[..., None] >> shifts) & 1
    return bits.astype(np.int64)


def pack_bits_msb_first(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bits_msb_first` along the last axis."""
    bits = np.asarray(bits, dtype=np.int64)
    n_bits = bits.shape[-1]
    weights = 1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64)
    out = (bits * weights).sum(axis=-1)
    return out if out.ndim else int(out)
