"""Whole-network accelerator performance model (Section 3.3).

Pushes a trained CNN through the accelerator mapping of
:mod:`repro.core.conv_mapping` layer by layer and totals latency and
energy for the three MAC-array families — the network-level view behind
Fig. 7's per-MAC numbers.  Convolution layers run on the modelled
array ("we apply SC to convolution layers only"); other layers are
outside its scope, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.conv_mapping import (
    AcceleratorConfig,
    binary_layer_cycles,
    conv_layer_cycles,
    conv_output_shape,
    conventional_sc_layer_cycles,
)
from repro.hw.array import MacArray
from repro.hw.mac_designs import fixed_point_mac, lfsr_sc_mac, proposed_mac
from repro.nn.network import Network

__all__ = ["LayerProfile", "NetworkProfile", "profile_network"]


@dataclass(frozen=True)
class LayerProfile:
    """Per-conv-layer latency of the three arrays."""

    index: int
    weight_shape: tuple[int, ...]
    out_hw: tuple[int, int]
    macs: float
    cycles_binary: float
    cycles_conv_sc: float
    cycles_proposed: float


@dataclass(frozen=True)
class NetworkProfile:
    """Network totals: latency, energy, speedups."""

    layers: list[LayerProfile]
    config: AcceleratorConfig
    energy_binary_nj: float
    energy_conv_sc_nj: float
    energy_proposed_nj: float

    @property
    def total_macs(self) -> float:
        return sum(l.macs for l in self.layers)

    @property
    def cycles(self) -> dict[str, float]:
        return {
            "binary": sum(l.cycles_binary for l in self.layers),
            "conv_sc": sum(l.cycles_conv_sc for l in self.layers),
            "proposed": sum(l.cycles_proposed for l in self.layers),
        }

    @property
    def speedup_vs_conv_sc(self) -> float:
        c = self.cycles
        return c["conv_sc"] / c["proposed"]

    @property
    def energy_gain_vs_conv_sc(self) -> float:
        return self.energy_conv_sc_nj / self.energy_proposed_nj

    @property
    def energy_gain_vs_binary(self) -> float:
        return self.energy_binary_nj / self.energy_proposed_nj


def profile_network(
    net: Network,
    input_shape: tuple[int, int, int],
    config: AcceleratorConfig | None = None,
    w_scales: list[float] | None = None,
) -> NetworkProfile:
    """Profile one inference of ``net`` on the modelled accelerator.

    Parameters
    ----------
    input_shape:
        ``(C, H, W)`` of one input sample.
    w_scales:
        Per-conv-layer weight scales (from calibration); weights are
        normalized by them before quantization, as the SC engines do.

    Returns per-layer cycle counts for the binary / conventional-SC /
    proposed arrays of ``config.tiling`` MACs, and whole-net energy
    (nJ per inference) using the calibrated power model.
    """
    config = config or AcceleratorConfig()
    convs = net.conv_layers
    if w_scales is None:
        w_scales = [1.0] * len(convs)
    if len(w_scales) != len(convs):
        raise ValueError("one w_scale per conv layer required")

    # input H/W seen by each conv layer, from one dummy forward
    geoms = [x.shape[2:] for x in net.conv_inputs(np.zeros((1, *input_shape)))]
    layers: list[LayerProfile] = []
    for i, (conv, (in_h, in_w), scale) in enumerate(zip(convs, geoms, w_scales)):
        out_h, out_w = conv_output_shape(in_h, in_w, conv.kernel, conv.stride, conv.pad)
        weights = conv.weight.value / scale
        ours = conv_layer_cycles(weights, out_h, out_w, config)
        binary = binary_layer_cycles(weights, out_h, out_w, config)
        conv_sc = conventional_sc_layer_cycles(weights, out_h, out_w, config)
        layers.append(
            LayerProfile(
                index=i,
                weight_shape=tuple(conv.weight.value.shape),
                out_hw=(out_h, out_w),
                macs=ours["macs"],
                cycles_binary=binary["cycles"],
                cycles_conv_sc=conv_sc["cycles"],
                cycles_proposed=ours["cycles"],
            )
        )

    lanes = config.tiling.lanes_per_mvm
    size = config.tiling.mac_count
    arrays = {
        "binary": MacArray(
            fixed_point_mac(config.n_bits, config.acc_bits), size, lanes, config.clock_ghz
        ),
        "conv_sc": MacArray(
            lfsr_sc_mac(config.n_bits, config.acc_bits), size, lanes, config.clock_ghz
        ),
        "proposed": MacArray(
            proposed_mac(config.n_bits, config.acc_bits, config.bit_parallel),
            size,
            lanes,
            config.clock_ghz,
        ),
    }
    totals = {
        "binary": sum(l.cycles_binary for l in layers),
        "conv_sc": sum(l.cycles_conv_sc for l in layers),
        "proposed": sum(l.cycles_proposed for l in layers),
    }
    # energy[nJ] = power[mW] * time[us] = power * cycles / (f[GHz] * 1e3)
    energy = {
        k: arrays[k].power_mw * totals[k] / (config.clock_ghz * 1e3) / 1e3
        for k in arrays
    }
    return NetworkProfile(
        layers=layers,
        config=config,
        energy_binary_nj=energy["binary"],
        energy_conv_sc_nj=energy["conv_sc"],
        energy_proposed_nj=energy["proposed"],
    )
