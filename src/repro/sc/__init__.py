"""Conventional stochastic-computing (SC) substrate.

This subpackage implements everything the paper treats as "conventional
SC": fixed-point encodings, stochastic-number bitstreams, random /
low-discrepancy number sources (LFSR, Halton, even-distribution,
MIP-synthesized tables, the parallel bitstream generator), SNGs
(stochastic number generators) behind the string-keyed registry of
:mod:`repro.sc.generators`, and AND/XNOR stream multipliers with
counter-based SN-to-BN conversion.

The proposed multiplier of the paper lives in :mod:`repro.core`; this
package provides the baselines it is compared against (Fig. 5, Table 2).
"""

from repro.sc.encoding import (
    BIPOLAR,
    UNIPOLAR,
    Encoding,
    bits_msb_first,
    dequantize_signed,
    dequantize_unipolar,
    from_offset_binary,
    pack_bits_msb_first,
    quantize_signed,
    quantize_unipolar,
    to_offset_binary,
)
from repro.sc.lfsr import MAXIMAL_TAPS, Lfsr
from repro.sc.halton import HaltonSource, halton_sequence, radical_inverse
from repro.sc.ed import EvenDistributionSource, even_distribution_stream
from repro.sc.sng import (
    CounterSource,
    RandomSource,
    Sng,
    WbgSng,
)
from repro.sc.generators import (
    DEFAULT_GENERATOR,
    GeneratorInfo,
    SngFamily,
    generator_fingerprint,
    generator_keys,
    generator_ud_table,
    list_generators,
    register_generator,
    resolve_generator,
)
from repro.sc.mip import TableSource, mip_tables, synthesize_mip_tables
from repro.sc.pbg import PbgSource, default_lanes
from repro.sc.bitstream import (
    sc_correlation,
    sn_value,
    stream_from_probability,
)
from repro.sc.counters import SaturatingUpDownCounter, UpDownCounter
from repro.sc import ops
from repro.sc.apps import (
    edge_detection_error,
    roberts_cross_exact,
    roberts_cross_sc,
)
from repro.sc.multipliers import (
    ConventionalScMac,
    bipolar_multiply_int,
    bipolar_xnor_stream,
    pairwise_partial_counts,
    pairwise_partial_counts_from_streams,
    unipolar_and_stream,
    unipolar_multiply_int,
)

__all__ = [
    "BIPOLAR",
    "UNIPOLAR",
    "Encoding",
    "bits_msb_first",
    "pack_bits_msb_first",
    "quantize_signed",
    "dequantize_signed",
    "quantize_unipolar",
    "dequantize_unipolar",
    "to_offset_binary",
    "from_offset_binary",
    "Lfsr",
    "MAXIMAL_TAPS",
    "HaltonSource",
    "halton_sequence",
    "radical_inverse",
    "EvenDistributionSource",
    "even_distribution_stream",
    "RandomSource",
    "CounterSource",
    "Sng",
    "WbgSng",
    "DEFAULT_GENERATOR",
    "GeneratorInfo",
    "SngFamily",
    "register_generator",
    "resolve_generator",
    "generator_keys",
    "list_generators",
    "generator_fingerprint",
    "generator_ud_table",
    "TableSource",
    "mip_tables",
    "synthesize_mip_tables",
    "PbgSource",
    "default_lanes",
    "sn_value",
    "sc_correlation",
    "stream_from_probability",
    "UpDownCounter",
    "SaturatingUpDownCounter",
    "ConventionalScMac",
    "unipolar_and_stream",
    "bipolar_xnor_stream",
    "unipolar_multiply_int",
    "bipolar_multiply_int",
    "pairwise_partial_counts",
    "pairwise_partial_counts_from_streams",
    "roberts_cross_exact",
    "roberts_cross_sc",
    "edge_detection_error",
    "ops",
]
