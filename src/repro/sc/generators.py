"""Pluggable SNG registry: string-keyed stochastic-number-generator families.

The paper's accuracy story (Figs. 5/6) hinges on which number source
feeds the multiplier, yet the three conventional families (LFSR,
Halton, even-distribution) were historically hard-wired into
:mod:`repro.analysis.error_stats` and the engines.  This module makes
the generator a first-class, registry-resolved citizen — selected by a
spec string — so new families plug into the Fig. 5/6 harnesses, the
compiled-schedule artifacts, the serving plane (per-request
``generator=``) and the CLI without touching any of them.

Registered families
-------------------
``lfsr``
    The conventional shared-LFSR pair (low-bias seed scan, alternate
    taps for the ``x`` operand) — the repo-wide default, the paper's
    conventional-SC baseline.
``halton``
    Halton low-discrepancy sources, base 3 for ``w`` / base 2 for ``x``
    (paper footnote 3).
``ed``
    Even-distribution rate streams for ``w`` with an LFSR ``x`` operand
    (Kim, Lee & Choi's area-optimized pairing).
``mip``
    MIP-synthesized sequence tables (Lee et al., arXiv:1902.05971):
    optimal-by-search permutations for small bit-widths, synthesized
    once and persisted as versioned artifacts (:mod:`repro.sc.mip`).
``parallel``
    The parallel bitstream generator (Zhang et al., arXiv:1904.09554):
    segmented van der Corput lanes emitted in parallel words
    (:mod:`repro.sc.pbg`).

A family answers four questions:

* :meth:`SngFamily.source` — a :class:`~repro.sc.sng.RandomSource` for
  one operand (``None`` for non-comparator streams like ED weights);
* :meth:`SngFamily.stream_matrix` — the ``(V, length)`` 0/1 stream
  matrix for a vector of magnitudes (what the Fig. 5 sweeps and the
  generic up/down table consume);
* :meth:`SngFamily.fingerprint` — the content-key component that pins
  compiled ``.sched`` artifacts to the generator that built them;
* :meth:`SngFamily.claims` — the invariants the property-based
  conformance suite (``tests/sc/test_sng_conformance.py``) enforces;
  new families declare what they guarantee and get pinned for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sc.ed import even_distribution_stream
from repro.sc.halton import HaltonSource
from repro.sc.lfsr import _ALT_TAPS, MAXIMAL_TAPS, Lfsr
from repro.sc.multipliers import (
    pairwise_partial_counts_from_streams,
    select_low_bias_seeds,
)

__all__ = [
    "DEFAULT_GENERATOR",
    "GeneratorInfo",
    "SngFamily",
    "register_generator",
    "resolve_generator",
    "generator_keys",
    "list_generators",
    "generator_fingerprint",
    "generator_ud_table",
]

#: The registry's default spec — the conventional shared-LFSR pair.
#: ``resolve_generator(None)`` returns this family, and engines treat
#: ``generator=None`` and ``generator="lfsr"`` identically: one table,
#: built and keyed like every other family's.
DEFAULT_GENERATOR = "lfsr"


@dataclass(frozen=True)
class GeneratorInfo:
    """One ``repro generators`` row: spec key, probe result, description."""

    spec: str
    available: bool
    detail: str


class SngFamily:
    """Base of one registered SNG family.

    Subclasses fill in :attr:`key`, :attr:`detail`, :meth:`source`,
    :meth:`fingerprint` and :meth:`claims`; the default
    :meth:`stream_matrix` covers every comparator-based family.
    """

    key: str = ""
    detail: str = ""

    # -- sources -----------------------------------------------------------
    def source(self, n_bits: int, operand: str = "w"):
        """A fresh :class:`~repro.sc.sng.RandomSource` for one operand.

        Returns ``None`` when the operand's stream is not a comparator
        output of a shared random sequence (the ED weight stream).
        """
        raise NotImplementedError

    # -- streams -----------------------------------------------------------
    def stream_matrix(
        self,
        n_bits: int,
        operand: str = "w",
        length: int | None = None,
        magnitudes: np.ndarray | None = None,
    ) -> np.ndarray:
        """0/1 stream bits for each magnitude, shape ``(V, length)``.

        ``magnitudes`` defaults to every offset word ``0 .. 2**n - 1``
        (the Fig. 5 convention); the generic up/down table passes
        ``0 .. 2**n`` inclusive.
        """
        if length is None:
            length = 1 << n_bits
        if magnitudes is None:
            magnitudes = np.arange(1 << n_bits, dtype=np.int64)
        src = self.source(n_bits, operand)
        if src is None:  # pragma: no cover - no registered family hits this
            raise NotImplementedError(f"{self.key}:{operand} has no shared source")
        rand = src.sequence(int(length))
        return (rand[None, :] < np.asarray(magnitudes)[:, None]).astype(np.int64)

    # -- identity & contracts ---------------------------------------------
    def fingerprint(self, n_bits: int) -> tuple:
        """Content-key parts pinning artifacts built from this family."""
        raise NotImplementedError

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        """Invariants the conformance suite enforces for one operand.

        Keys: ``comparator`` (streams are comparator outputs of
        :meth:`source`), ``permutation`` (one source period emits each
        integer in ``[0, 2**n)`` exactly once), ``exact_count`` (a
        full-period stream for magnitude ``m`` holds exactly ``m``
        ones), ``period`` (stream period in cycles, or ``None`` when no
        period is claimed).
        """
        raise NotImplementedError


class LfsrFamily(SngFamily):
    """Conventional shared-LFSR pair — the repo default."""

    key = "lfsr"
    detail = "shared LFSR pair, low-bias seed scan, alternate taps for x"

    def _seeds(self, n_bits: int) -> tuple[int, int]:
        return select_low_bias_seeds(n_bits)

    def source(self, n_bits: int, operand: str = "w"):
        seed_w, seed_x = self._seeds(n_bits)
        return Lfsr(
            n_bits,
            seed=seed_w if operand == "w" else seed_x,
            alternate=(operand == "x"),
        )

    def fingerprint(self, n_bits: int) -> tuple:
        seed_w, seed_x = self._seeds(n_bits)
        return ("lfsr", seed_w, seed_x, MAXIMAL_TAPS[n_bits], _ALT_TAPS[n_bits])

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        # A maximal LFSR visits every *nonzero* state once: period
        # 2**n - 1, never an exact permutation of [0, 2**n).
        return {
            "comparator": True,
            "permutation": False,
            "exact_count": False,
            "period": (1 << n_bits) - 1,
        }


class HaltonFamily(SngFamily):
    """Halton low-discrepancy sources, base 3 (w) / base 2 (x)."""

    key = "halton"
    detail = "Halton sources, base 3 for w / base 2 for x (footnote 3)"

    @staticmethod
    def _base(operand: str) -> int:
        return 3 if operand == "w" else 2

    def source(self, n_bits: int, operand: str = "w"):
        return HaltonSource(n_bits, base=self._base(operand))

    def fingerprint(self, n_bits: int) -> tuple:
        return ("halton", self._base("w"), self._base("x"))

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        # Base 2 is the van der Corput sequence: one period of 2**n
        # indices bit-reverses the counter, an exact permutation.  Base
        # 3 interleaves a ternary radix into a binary range — no clean
        # period, no exact count.
        if operand == "x":
            return {
                "comparator": True,
                "permutation": True,
                "exact_count": True,
                "period": 1 << n_bits,
            }
        return {
            "comparator": True,
            "permutation": False,
            "exact_count": False,
            "period": None,
        }


class EdFamily(SngFamily):
    """Even-distribution rate streams (w) with an LFSR data operand (x)."""

    key = "ed"
    detail = "even-distribution rate streams for w, LFSR for x"

    def source(self, n_bits: int, operand: str = "w"):
        if operand == "w":
            return None  # the rate stream is value-dependent, not comparator-based
        return Lfsr(n_bits, seed=1, alternate=True)

    def stream_matrix(
        self,
        n_bits: int,
        operand: str = "w",
        length: int | None = None,
        magnitudes: np.ndarray | None = None,
    ) -> np.ndarray:
        if operand != "w":
            return super().stream_matrix(n_bits, operand, length, magnitudes)
        if length is None:
            length = 1 << n_bits
        if magnitudes is None:
            magnitudes = np.arange(1 << n_bits, dtype=np.int64)
        return np.stack(
            [even_distribution_stream(int(v), n_bits, int(length)) for v in magnitudes]
        )

    def fingerprint(self, n_bits: int) -> tuple:
        return ("ed", 1, _ALT_TAPS[n_bits])

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        if operand == "w":
            # floor((t+1)k/L) - floor(tk/L) sums telescopically to k
            # over any full period of L cycles.
            return {
                "comparator": False,
                "permutation": False,
                "exact_count": True,
                "period": 1 << n_bits,
            }
        return {
            "comparator": True,
            "permutation": False,
            "exact_count": False,
            "period": (1 << n_bits) - 1,
        }


class MipFamily(SngFamily):
    """MIP-synthesized sequence tables (Lee et al., arXiv:1902.05971)."""

    key = "mip"
    detail = "MIP-synthesized permutation tables, store-backed (<= 8 bits)"

    def source(self, n_bits: int, operand: str = "w"):
        from repro.sc.mip import TableSource, mip_tables

        table_w, table_x = mip_tables(n_bits)
        return TableSource(table_w if operand == "w" else table_x, n_bits)

    def fingerprint(self, n_bits: int) -> tuple:
        from repro.sc.mip import MIP_TABLE_VERSION

        return ("mip", MIP_TABLE_VERSION)

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        return {
            "comparator": True,
            "permutation": True,
            "exact_count": True,
            "period": 1 << n_bits,
        }


class ParallelFamily(SngFamily):
    """Parallel bitstream generator (Zhang et al., arXiv:1904.09554)."""

    key = "parallel"
    detail = "segmented van der Corput lanes emitted in parallel words"

    def source(self, n_bits: int, operand: str = "w"):
        from repro.sc.pbg import PbgSource

        return PbgSource(n_bits, scramble=0 if operand == "w" else 1)

    def fingerprint(self, n_bits: int) -> tuple:
        from repro.sc.pbg import PBG_VERSION, default_lanes

        return ("pbg", PBG_VERSION, default_lanes(n_bits))

    def claims(self, n_bits: int, operand: str = "w") -> dict:
        return {
            "comparator": True,
            "permutation": True,
            "exact_count": True,
            "period": 1 << n_bits,
        }


# ---------------------------------------------------------------------------
# the registry
_FAMILIES: dict[str, SngFamily] = {}


def register_generator(spec: str, family: SngFamily) -> None:
    """Register (or replace) one generator family under a spec key."""
    _FAMILIES[str(spec)] = family


def resolve_generator(spec: str | SngFamily | None = None) -> SngFamily:
    """Resolve a generator spec to its family; loud on unknown keys.

    ``None`` resolves to :data:`DEFAULT_GENERATOR`; an :class:`SngFamily`
    instance passes through unchanged (test doubles).
    """
    if spec is None:
        spec = DEFAULT_GENERATOR
    if isinstance(spec, SngFamily):
        return spec
    key = str(spec)
    family = _FAMILIES.get(key)
    if family is None:
        raise ValueError(
            f"unknown generator {key!r}; choose from {sorted(_FAMILIES)}"
        )
    return family


def generator_keys() -> list[str]:
    """Sorted spec keys of every registered family."""
    return sorted(_FAMILIES)


def generator_fingerprint(spec: str | SngFamily | None, n_bits: int) -> tuple:
    """Content-key parts of one resolved generator at one precision."""
    return resolve_generator(spec).fingerprint(int(n_bits))


def _probe(spec: str) -> GeneratorInfo:
    """Build both operand matrices at a small width; loud in ``detail``."""
    family = _FAMILIES[spec]
    try:
        for operand in ("w", "x"):
            family.stream_matrix(4, operand)
        return GeneratorInfo(spec=spec, available=True, detail=family.detail)
    except Exception as exc:  # pragma: no cover - no registered family fails
        return GeneratorInfo(spec=spec, available=False, detail=f"{type(exc).__name__}: {exc}")


def list_generators() -> list[GeneratorInfo]:
    """Probe every registered family (what ``repro generators`` prints)."""
    return [_probe(spec) for spec in sorted(_FAMILIES)]


def generator_ud_table(spec: str | SngFamily | None, n_bits: int) -> np.ndarray:
    """Generic shared-source XNOR up/down table for one family.

    ``table[w_off, x_off]`` is the up/down count after ``2**n`` cycles —
    twice the product in output-LSB units, exactly the contract of
    :func:`repro.sc.multipliers.lfsr_ud_table`.  It builds the LFSR-SC
    engine's table for every registered family; for ``lfsr`` it is
    byte-equal to ``lfsr_ud_table`` at the scanned seed pair.
    """
    family = resolve_generator(spec)
    length = 1 << n_bits
    magnitudes = np.arange(length + 1, dtype=np.int64)
    bits_w = family.stream_matrix(n_bits, "w", length, magnitudes)
    bits_x = family.stream_matrix(n_bits, "x", length, magnitudes)
    counts = pairwise_partial_counts_from_streams(bits_w, bits_x, [length])
    return (2 * counts["ones"][0] - length).astype(np.int64)


register_generator("lfsr", LfsrFamily())
register_generator("halton", HaltonFamily())
register_generator("ed", EdFamily())
register_generator("mip", MipFamily())
register_generator("parallel", ParallelFamily())
