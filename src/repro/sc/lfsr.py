"""Linear feedback shift registers (LFSRs).

Conventional SNGs (Section 2.1 of the paper) pair an ``N``-bit LFSR with
an ``N``-bit comparator.  This module provides a Fibonacci LFSR with
maximal-length feedback polynomials for all widths used in the paper
(5-10 bits) and then some.

A maximal-length ``n``-bit LFSR cycles through all ``2**n - 1`` nonzero
states, so its output sequence, read as ``n``-bit integers, is a
permutation of ``1 .. 2**n - 1`` — pseudo-random but never zero, which
introduces the small comparator bias real SC hardware has.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAXIMAL_TAPS", "Lfsr"]

#: Cached state orbits, keyed by ``(n_bits, taps)``.  An orbit is a
#: cyclic state sequence; caching it (plus each state's phase on it)
#: turns every :meth:`Lfsr.sequence` call into an array gather instead
#: of a per-cycle Python loop.  Orbits are only cached for widths where
#: the table stays small, and only when the walk provably closes on the
#: seed (always true for the maximal polynomials shipped here).
_ORBIT_CACHE: dict[
    tuple[int, tuple[int, ...]],
    dict[int, tuple[np.ndarray, int] | None],
] = {}

#: Widest register for which orbits are cached (2**16 ints = 0.5 MB).
_ORBIT_CACHE_MAX_BITS = 16

#: Maximal-length feedback taps (1-indexed bit positions, x^n + ... + 1)
#: for Fibonacci LFSRs, from the standard Xilinx/wikipedia tables.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}

#: Alternative maximal polynomials, used to derive *independent* LFSRs
#: for the two operands of a conventional SC multiply.
_ALT_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 1),
    4: (4, 1),
    5: (5, 4, 3, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 7, 6, 1),
    9: (9, 8, 6, 5),
    10: (10, 9, 7, 6),
    11: (11, 10, 9, 7),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 1),
    16: (16, 12, 3, 1),
    17: (17, 3),
    18: (18, 7),
    19: (19, 6, 2, 1),
    20: (20, 3),
    21: (21, 2),
    22: (22, 1),
    23: (23, 5),
    24: (24, 4, 3, 1),
}


class Lfsr:
    """Fibonacci LFSR producing ``n_bits``-wide pseudo-random integers.

    Parameters
    ----------
    n_bits:
        Register width.  Must have an entry in :data:`MAXIMAL_TAPS`.
    seed:
        Initial nonzero state.  Defaults to 1.
    taps:
        Feedback tap positions (1-indexed).  Defaults to a
        maximal-length polynomial.
    alternate:
        If true, use the alternative maximal polynomial from
        ``_ALT_TAPS`` — handy for building a second, independent LFSR.

    >>> lfsr = Lfsr(4)
    >>> len(set(lfsr.sequence(15).tolist()))
    15
    """

    def __init__(
        self,
        n_bits: int,
        seed: int = 1,
        taps: tuple[int, ...] | None = None,
        alternate: bool = False,
    ) -> None:
        if n_bits not in MAXIMAL_TAPS:
            raise ValueError(f"no tap table for width {n_bits}")
        if taps is None:
            taps = _ALT_TAPS[n_bits] if alternate else MAXIMAL_TAPS[n_bits]
        if any(t < 1 or t > n_bits for t in taps):
            raise ValueError(f"tap out of range for width {n_bits}: {taps}")
        if seed <= 0 or seed >= (1 << n_bits):
            raise ValueError(f"seed must be a nonzero {n_bits}-bit value")
        self.n_bits = n_bits
        self.taps = tuple(taps)
        self._state = seed
        self._seed = seed

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    @property
    def period(self) -> int:
        """Period of a maximal-length sequence (``2**n - 1``)."""
        return (1 << self.n_bits) - 1

    def reset(self) -> None:
        """Restore the seed state."""
        self._state = self._seed

    def step(self) -> int:
        """Advance one clock; return the new state as an integer."""
        fb = 0
        for t in self.taps:
            fb ^= (self._state >> (t - 1)) & 1
        self._state = ((self._state << 1) | fb) & ((1 << self.n_bits) - 1)
        return self._state

    def _orbit(self) -> tuple[np.ndarray, int] | None:
        """The cached cyclic state sequence through ``self._state``.

        Returns ``(orbit, phase)`` — the full cycle as an array and the
        current state's offset on it — computed once per ``(n_bits,
        taps)`` orbit by stepping a scratch register until it returns to
        the start state.  ``None`` (also cached) when the width is too
        large to table or the chosen taps do not close a cycle within
        ``2**n`` steps.
        """
        if self.n_bits > _ORBIT_CACHE_MAX_BITS:
            return None
        phases = _ORBIT_CACHE.setdefault((self.n_bits, self.taps), {})
        if self._state not in phases:
            scratch = Lfsr(self.n_bits, seed=self._state, taps=self.taps)
            limit = 1 << self.n_bits
            states = [self._state]
            for _ in range(limit):
                nxt = scratch.step()
                if nxt == self._state:
                    break
                states.append(nxt)
            else:
                phases[self._state] = None  # no cycle through this state
                return None
            orbit = np.array(states, dtype=np.int64)
            for i, s in enumerate(states):
                phases[int(s)] = (orbit, i)
        return phases[self._state]

    def sequence(self, length: int) -> np.ndarray:
        """Return the next ``length`` states (advances the register).

        The register state *before* stepping is emitted first, matching
        hardware where the comparator sees the current register value
        each cycle.  Served from a cached full-period orbit as an array
        gather when possible (bit-exact with stepping); falls back to
        the per-cycle loop otherwise.
        """
        cached = self._orbit()
        if cached is None:
            out = np.empty(length, dtype=np.int64)
            for i in range(length):
                out[i] = self._state
                self.step()
            return out
        orbit, phase = cached
        period = orbit.size
        idx = (phase + np.arange(length, dtype=np.int64)) % period
        out = orbit[idx]
        self._state = int(orbit[(phase + length) % period])
        return out

    def full_period_sequence(self) -> np.ndarray:
        """One full period starting from the seed (does not mutate)."""
        saved = self._state
        self._state = self._seed
        seq = self.sequence(self.period)
        self._state = saved
        return seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lfsr(n_bits={self.n_bits}, taps={self.taps}, state={self._state})"
