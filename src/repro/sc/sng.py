"""Stochastic number generators (SNGs) — BN-to-SN converters.

An SNG (Section 2.1 of the paper) pairs a random-number source with a
comparator: each cycle it emits 1 when ``random < value``.  The choice
of source determines accuracy and hardware cost:

* :class:`~repro.sc.lfsr.Lfsr` — the conventional LFSR-based SNG.
* :class:`~repro.sc.halton.HaltonSource` — Halton low-discrepancy
  source (Alaghi & Hayes).  In base 2 it is the bit-reversed binary
  counter (van der Corput), the deterministic core shared by many
  low-discrepancy SNG proposals.
* :class:`CounterSource` — a plain binary counter; emitting
  ``value`` ones *first* (a sorted, fully deterministic stream).  This
  is what the reordering argument of Fig. 1(b) produces for ``w``.

For bipolar (signed) operands the input must first be converted to
offset binary (:func:`repro.sc.encoding.to_offset_binary`); the SNG
itself always compares unsigned magnitudes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.sc.encoding import BIPOLAR, Encoding, to_offset_binary

__all__ = [
    "RandomSource",
    "CounterSource",
    "Sng",
    "WbgSng",
    "comparator_stream",
]


@runtime_checkable
class RandomSource(Protocol):
    """Anything that can feed the comparator of an SNG."""

    n_bits: int

    def reset(self) -> None:
        """Rewind to the initial state."""
        ...  # pragma: no cover - protocol

    def sequence(self, length: int) -> np.ndarray:
        """Return the next ``length`` integers in ``[0, 2**n_bits)``."""
        ...  # pragma: no cover - protocol


class CounterSource:
    """Plain binary up-counter source, starting at 0.

    Compared against a value ``k`` it yields ``k`` ones followed by
    ``2**n - k`` zeros — the "all 1s first" stream of Fig. 1(b).
    """

    def __init__(self, n_bits: int, start: int = 0) -> None:
        self.n_bits = n_bits
        self._start = start
        self._state = start

    def reset(self) -> None:
        self._state = self._start

    def sequence(self, length: int) -> np.ndarray:
        period = 1 << self.n_bits
        out = (self._state + np.arange(length, dtype=np.int64)) % period
        self._state = int((self._state + length) % period)
        return out


def comparator_stream(random_values: np.ndarray, magnitude: int) -> np.ndarray:
    """Comparator half of an SNG: 1 where ``random < magnitude``."""
    return (np.asarray(random_values, dtype=np.int64) < magnitude).astype(np.int64)


class WbgSng:
    """Weighted binary generator (Gupta & Kumaresan) — comparator-free SNG.

    Classic alternative to the LFSR+comparator: ``n`` mutually exclusive
    weight signals ``w_i`` are derived from the random word's bits
    (``w_{n-1} = r_{n-1}``, ``w_{n-2} = !r_{n-1} & r_{n-2}``, ...), so
    ``P(w_i) = 2^{i-n}``; the output ``OR_i (w_i AND x_i)`` then has
    probability exactly ``x / 2^n`` for uniform random words.  With an
    LFSR source the result is deterministic and slightly biased, like
    real hardware.
    """

    def __init__(self, source: RandomSource) -> None:
        self.source = source

    @property
    def n_bits(self) -> int:
        return self.source.n_bits

    def reset(self) -> None:
        self.source.reset()

    def generate(self, value: int, length: int) -> np.ndarray:
        """Emit ``length`` stream bits for an unsigned ``value``."""
        n = self.n_bits
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of {n}-bit unsigned range")
        rand = self.source.sequence(length)
        out = np.zeros(length, dtype=np.int64)
        taken = np.zeros(length, dtype=bool)
        # scan from the MSB down: the first set random bit selects x_i
        for i in range(n - 1, -1, -1):
            w_i = ((rand >> i) & 1).astype(bool) & ~taken
            taken |= w_i
            if (value >> i) & 1:
                out[w_i] = 1
        return out


class Sng:
    """A complete BN-to-SN converter: random source + comparator.

    Parameters
    ----------
    source:
        Any :class:`RandomSource`.
    encoding:
        :data:`~repro.sc.encoding.UNIPOLAR` inputs are unsigned
        magnitudes; :data:`~repro.sc.encoding.BIPOLAR` inputs are
        two's-complement integers and are offset-binary converted before
        comparison.

    A hardware shared-source SNG fans one random word out to every
    comparator, so all streams drawn from one ``Sng`` see the *same*
    random sequence: two :meth:`generate` calls return streams with the
    shared-source correlation (their XNOR is the biased shared-LFSR
    product, not an independent multiply).  Earlier revisions consumed
    the source on every call, so a second stream silently saw the next
    window — equivalent to reseeding mid-conversion, which no shared
    hardware generator does.  :meth:`reset` rewinds the source and
    starts a fresh window.

    >>> sng = Sng(CounterSource(3))
    >>> sng.generate(5, 8).tolist()
    [1, 1, 1, 1, 1, 0, 0, 0]
    """

    def __init__(self, source: RandomSource, encoding: Encoding = Encoding.UNIPOLAR) -> None:
        self.source = source
        self.encoding = encoding
        self._window: np.ndarray | None = None

    @property
    def n_bits(self) -> int:
        """Precision of the converter."""
        return self.source.n_bits

    def reset(self) -> None:
        """Rewind the random source and discard the shared window."""
        self.source.reset()
        self._window = None

    def _shared_window(self, length: int) -> np.ndarray:
        """The shared random values every generated stream compares against."""
        if self._window is None or self._window.size < length:
            have = 0 if self._window is None else self._window.size
            ext = self.source.sequence(length - have)
            self._window = ext if have == 0 else np.concatenate([self._window, ext])
        return self._window[:length]

    def generate(self, value: int, length: int) -> np.ndarray:
        """Emit ``length`` stream bits for ``value`` off the shared source."""
        magnitude = (
            to_offset_binary(value, self.n_bits) if self.encoding is BIPOLAR else int(value)
        )
        if not 0 <= magnitude <= (1 << self.n_bits):
            raise ValueError(f"magnitude {magnitude} out of range for {self.n_bits} bits")
        return comparator_stream(self._shared_window(length), magnitude)

    def generate_all_values(self, length: int) -> np.ndarray:
        """Stream bits for *every* representable magnitude at once.

        Returns an array of shape ``(2**n_bits + 1, length)`` whose row
        ``m`` is the stream for magnitude ``m`` — all rows share the
        same random sequence, exactly like a shared-source SNG in
        hardware.  Used by the exhaustive Fig. 5 sweeps.
        """
        self.reset()
        rand = self._shared_window(length)
        mags = np.arange((1 << self.n_bits) + 1, dtype=np.int64)
        return (rand[None, :] < mags[:, None]).astype(np.int64)
