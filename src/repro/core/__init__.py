"""The paper's contribution: BISC multiplier, SC-MAC, and BISC-MVM.

Modules
-------
``fsm_generator``
    The FSM+MUX deterministic low-discrepancy bitstream generator
    (Section 2.3) and its closed-form partial sums.
``multiplier``
    Unsigned bit-serial BISC multiply / SC-MAC (Sections 2.1-2.3).
``signed``
    Two's-complement extension (Section 2.4, Table 1).
``bit_parallel``
    Bit-parallel processing with the ones counter (Section 2.5).
``accumulator``
    Saturating accumulators shared by all engines.
``kernels``
    Vectorized cycle kernels: whole FSM+MUX schedules, stream matrices
    and saturating walks as array ops, bit-exact with the stepped
    simulators (enforced by ``tests/core/test_kernel_parity.py``).
``mvm``
    BISC-MVM, the vectorized SC-MAC array (Section 3.1), plus the fast
    numpy matrix-multiply engine used by the CNN experiments.
``conv_mapping``
    Mapping of tiled convolution loops onto BISC-MVMs and the latency
    model (Sections 3.2-3.3).
``rtl``
    Cycle-accurate register-level simulators used to validate every
    closed form bit-exactly.
"""

from repro.core.fsm_generator import (
    FsmMuxGenerator,
    appearance_count,
    mux_select_sequence,
    prefix_ones,
    stream_bits,
)
from repro.core.multiplier import BiscMultiplierUnsigned, bisc_multiply_unsigned
from repro.core.signed import (
    bisc_multiply_signed,
    multiply_latency,
    signed_multiply_details,
)
from repro.core.bit_parallel import BitParallelMac, bit_parallel_latency
from repro.core.accumulator import SaturatingAccumulatorArray
from repro.core.kernels import (
    mvm_mac_kernel,
    saturating_walk,
    select_schedule,
    stream_matrix,
    truncated_matmul_kernel,
)
from repro.core.mvm import BiscMvm, sc_matmul, sc_matmul_reference
from repro.core.conv_mapping import (
    AcceleratorConfig,
    TilingConfig,
    conv_layer_cycles,
    conv_layer_macs,
)
from repro.core.energy_quality import (
    energy_quality_curve,
    magnitude_cap_weights,
    truncated_multiply,
)
from repro.core.accelerator_sim import ConvResult, simulate_conv_layer
from repro.core.rtl import BiscMvmRtl, FsmMuxRtl, ScMacRtl
from repro.core.verilog import write_rtl_project

__all__ = [
    "FsmMuxGenerator",
    "appearance_count",
    "mux_select_sequence",
    "prefix_ones",
    "stream_bits",
    "bisc_multiply_unsigned",
    "BiscMultiplierUnsigned",
    "bisc_multiply_signed",
    "signed_multiply_details",
    "multiply_latency",
    "BitParallelMac",
    "bit_parallel_latency",
    "SaturatingAccumulatorArray",
    "select_schedule",
    "stream_matrix",
    "saturating_walk",
    "mvm_mac_kernel",
    "truncated_matmul_kernel",
    "BiscMvm",
    "sc_matmul",
    "sc_matmul_reference",
    "TilingConfig",
    "AcceleratorConfig",
    "conv_layer_cycles",
    "conv_layer_macs",
    "FsmMuxRtl",
    "ScMacRtl",
    "BiscMvmRtl",
    "truncated_multiply",
    "magnitude_cap_weights",
    "energy_quality_curve",
    "ConvResult",
    "simulate_conv_layer",
    "write_rtl_project",
]
