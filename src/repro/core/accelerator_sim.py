"""Functional simulation of the SC-CNN accelerator (Fig. 4 + Fig. 3).

Executes a convolution layer *exactly the way the accelerator does*:
the tiled 6-deep loop nest of Fig. 4, with each group of
``T_R x T_C`` output pixels computed by one BISC-MVM (lanes = pixels,
weight shared), accumulating over ``z, i, j`` in loop order into
saturating ``N+A``-bit counters, and counting cycles with the shared
down counter.

This is the bridge between :mod:`repro.core.mvm` (the compute unit) and
:mod:`repro.core.conv_mapping` (the latency model): its outputs must
equal the im2col + ``sc_matmul`` path the CNN experiments use, and its
cycle count must equal the analytical model — both pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.conv_mapping import AcceleratorConfig, conv_output_shape
from repro.core.signed import bisc_multiply_signed
from repro.sc.encoding import signed_range

__all__ = ["ConvResult", "simulate_conv_layer"]


@dataclass(frozen=True)
class ConvResult:
    """Output feature map and latency of one simulated conv layer."""

    output: np.ndarray  #: (M, R, C) accumulator values, output-LSB units
    cycles: int  #: total latency under the tiling (Fig. 4 schedule)
    macs: int


def simulate_conv_layer(
    activations: np.ndarray,
    weights: np.ndarray,
    config: AcceleratorConfig,
    stride: int = 1,
    pad: int = 0,
) -> ConvResult:
    """Run one conv layer through the tiled BISC-MVM accelerator.

    Parameters
    ----------
    activations:
        Input feature map, ``(Z, H, W)``, ``n_bits``-bit two's-complement
        integers (one sample; the accelerator is batch-agnostic).
    weights:
        ``(M, Z, K, K)`` integers in the same format.

    Returns the ``(M, R, C)`` output map in output-LSB units, exactly
    matching ``sc_matmul(W2d, im2col(x), saturate="term")``, plus the
    Fig. 4 cycle count: per spatial tile, each channel group of ``T_M``
    MVMs runs in lockstep and finishes with its slowest member.
    """
    a = np.asarray(activations, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    if a.ndim != 3 or w.ndim != 4 or a.shape[0] != w.shape[1]:
        raise ValueError(f"bad shapes: activations {a.shape}, weights {w.shape}")
    lo, hi = signed_range(config.n_bits)
    for name, arr in (("activations", a), ("weights", w)):
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(f"{name} out of {config.n_bits}-bit signed range")

    m_total, z_total, kern, _ = w.shape
    if pad:
        a = np.pad(a, ((0, 0), (pad, pad), (pad, pad)))
    out_h, out_w = conv_output_shape(a.shape[1], a.shape[2], kern, stride, pad=0)
    tiling = config.tiling
    width = config.n_bits + config.acc_bits
    acc_lo, acc_hi = -(1 << (width - 1)), (1 << (width - 1)) - 1

    output = np.zeros((m_total, out_h, out_w), dtype=np.int64)
    total_cycles = 0
    b = config.bit_parallel

    for m0 in range(0, m_total, tiling.t_m):  # Fig. 4: m1 loop
        m1 = min(m_total, m0 + tiling.t_m)
        for r0 in range(0, out_h, tiling.t_r):  # r1 loop
            r1 = min(out_h, r0 + tiling.t_r)
            for c0 in range(0, out_w, tiling.t_c):  # c1 loop
                c1 = min(out_w, c0 + tiling.t_c)
                group_cycles = 0
                for m in range(m0, m1):  # T_M MVMs in parallel
                    acc = np.zeros((r1 - r0, c1 - c0), dtype=np.int64)
                    mvm_cycles = 0
                    for z in range(z_total):  # the inner z, i, j loops
                        for i in range(kern):
                            for j in range(kern):
                                wt = int(w[m, z, i, j])
                                rows = slice(r0 * stride + i, (r1 - 1) * stride + i + 1, stride)
                                cols = slice(c0 * stride + j, (c1 - 1) * stride + j + 1, stride)
                                lanes = a[z, rows, cols]
                                term = bisc_multiply_signed(wt, lanes, config.n_bits)
                                acc = np.clip(acc + term, acc_lo, acc_hi)
                                mvm_cycles += -(-abs(wt) // b)
                    output[m, r0:r1, c0:c1] = acc
                    group_cycles = max(group_cycles, mvm_cycles)
                total_cycles += group_cycles

    macs = m_total * z_total * kern * kern * out_h * out_w
    return ConvResult(output=output, cycles=total_cycles, macs=macs)
