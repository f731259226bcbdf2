"""Parallel bitstream generator (Zhang et al., arXiv:1904.09554).

Zhang, Wang et al. accelerate SC by emitting ``W`` stream bits per
cycle from one generator.  The weight-side variant cuts the ``2**n``
code space into ``W`` segments of ``S = 2**n / W`` codes; lane ``j``
owns segment ``j`` and walks it with a van der Corput (bit-reversed
counter) sequence, so the word emitted at cycle ``t`` is::

    r[t, j] = j * S + vdc_S(t % S)

Every lane is a permutation of its segment, so one full period of
``S`` cycles (``2**n`` serialized values) is an exact permutation of
``0 .. 2**n - 1`` — comparator streams therefore carry *exactly* ``m``
ones for magnitude ``m``, while every per-cycle word already samples
the whole code range (one code per segment).

Two operands must not share one scrambling or their streams correlate
like shared-ED streams do; the ``scramble`` parameter selects the
variant:

* variant 0 (weights) — the segmented van der Corput lanes above;
* variant 1 (data) — the parallel ramp ``r[t, j] = (t * W + j) % 2**n``
  (each word is ``W`` consecutive codes, the cheapest possible
  parallel word).  Serialized, this is the plain binary counter, the
  other coordinate of the 2-D Hammersley pairing: against variant 0
  its exhaustive multiply error sits between the Halton and LFSR
  baselines while emitting ``W`` values per cycle.

:class:`PbgSource` exposes both the hardware-shaped parallel view
(:meth:`PbgSource.words`, one ``(cycles, W)`` block per call — the
bit-parallel precedent of
:class:`~repro.sc.ed.EvenDistributionSource.step`) and the serialized
:class:`~repro.sc.sng.RandomSource` interface every SNG consumer
already speaks.
"""

from __future__ import annotations

import numpy as np

from repro.sc.halton import bit_reverse

__all__ = ["PBG_VERSION", "default_lanes", "PbgSource"]

#: Part of the family fingerprint; bump when lane layout or scrambling
#: changes so compiled schedules built from old streams miss cleanly.
PBG_VERSION = 1


def default_lanes(n_bits: int) -> int:
    """Default word width: 8 lanes, narrowed so segments stay >= 2 codes."""
    return min(8, 1 << max(0, n_bits - 1))


class PbgSource:
    """Parallel bitstream generator, ``lanes`` values per cycle."""

    def __init__(self, n_bits: int, lanes: int | None = None, scramble: int = 0) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if lanes is None:
            lanes = default_lanes(n_bits)
        if lanes < 1 or lanes & (lanes - 1):
            raise ValueError(f"lanes must be a power of two, got {lanes}")
        if lanes > (1 << n_bits):
            raise ValueError(f"{lanes} lanes cannot cover a {n_bits}-bit code space")
        if scramble not in (0, 1):
            raise ValueError(f"scramble selects variant 0 (w) or 1 (x), got {scramble}")
        self.n_bits = n_bits
        self.lanes = lanes
        self.scramble = int(scramble)
        self._segment_bits = n_bits - (lanes.bit_length() - 1)
        self._segment = 1 << self._segment_bits  # codes per lane
        self._pos = 0  # serialized position, in values

    @property
    def period(self) -> int:
        """Serialized period in values: one exact permutation of the space."""
        return 1 << self.n_bits

    @property
    def cycles_per_period(self) -> int:
        return self._segment

    def reset(self) -> None:
        self._pos = 0

    def _values_at(self, flat: np.ndarray) -> np.ndarray:
        """Serialized value at each flat position (cycle-major, lane-minor)."""
        if self.scramble == 1:
            return flat % self.period
        t = (flat // self.lanes) % self._segment
        j = flat % self.lanes
        return j * self._segment + bit_reverse(t, self._segment_bits)

    def words(self, cycles: int) -> np.ndarray:
        """The next ``cycles`` parallel words, shape ``(cycles, lanes)``."""
        flat = self._pos + np.arange(cycles * self.lanes, dtype=np.int64)
        out = self._values_at(flat).reshape(cycles, self.lanes)
        self._pos += cycles * self.lanes
        return out

    def sequence(self, length: int) -> np.ndarray:
        """Serialized :class:`~repro.sc.sng.RandomSource` view."""
        flat = self._pos + np.arange(length, dtype=np.int64)
        self._pos += length
        return self._values_at(flat)
