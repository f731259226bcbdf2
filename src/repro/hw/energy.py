"""Fig. 7 comparison: area / delay / energy of competing MAC arrays.

Builds the paper's four arrays (fixed-point binary, conventional LFSR
SC, proposed bit-serial, proposed 8-bit-parallel) at a common size and
clock, feeds them the measured average MAC latency of the proposed
designs (data-dependent, from the weight distribution) and reports the
Fig. 7 metrics plus the paper's headline ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.signed import multiply_latency
from repro.hw.array import MacArray
from repro.hw.mac_designs import MacDesign, fixed_point_mac, lfsr_sc_mac, proposed_mac
from repro.sc.encoding import quantize_signed

__all__ = ["avg_mac_cycles_from_weights", "Fig7Row", "compare_mac_arrays"]


def avg_mac_cycles_from_weights(
    weights: np.ndarray, precision: int, bit_parallel: int = 1
) -> float:
    """``E[ceil(|w_int| / b)]`` over a float weight sample.

    This is the data-dependent per-MAC latency of the proposed design —
    small because trained CNN weights are bell-shaped around zero
    (Section 3.2).  Each weight is quantized as the engines quantize it
    (:func:`~repro.sc.encoding.quantize_signed`) and costs what the
    multiplier takes for it (:func:`~repro.core.signed.multiply_latency`),
    so a full-scale negative weight costs ``2**(N-1)`` cycles.
    """
    w_int = quantize_signed(np.asarray(weights, dtype=np.float64).ravel(), precision)
    return float(multiply_latency(w_int, precision, bit_parallel).mean())


@dataclass(frozen=True)
class Fig7Row:
    """One bar group of Fig. 7."""

    label: str
    area_mm2: float
    avg_mac_cycles: float
    energy_per_mac_pj: float
    power_mw: float
    adp_um2_cycles: float

    def as_dict(self) -> dict[str, float]:
        return {
            "area_mm2": self.area_mm2,
            "avg_mac_cycles": self.avg_mac_cycles,
            "energy_per_mac_pj": self.energy_per_mac_pj,
            "power_mw": self.power_mw,
            "adp_um2_cycles": self.adp_um2_cycles,
        }


def _row(label: str, design: MacDesign, size: int, lanes: int, clock: float, cyc) -> Fig7Row:
    arr = MacArray(design, size=size, lanes=lanes, clock_ghz=clock)
    s = arr.summary(cyc)
    return Fig7Row(
        label=label,
        area_mm2=s["area_mm2"],
        avg_mac_cycles=s["avg_mac_cycles"],
        energy_per_mac_pj=s["energy_per_mac_pj"],
        power_mw=s["power_mw"],
        adp_um2_cycles=s["adp_um2_cycles"],
    )


def compare_mac_arrays(
    weights: np.ndarray,
    precision: int,
    size: int = 256,
    lanes: int = 16,
    clock_ghz: float = 1.0,
    acc_bits: int = 2,
    bit_parallel: int = 8,
) -> dict[str, object]:
    """Fig. 7 for one benchmark setting (e.g. MP=5 MNIST, MP=8/9 CIFAR).

    Returns the four rows ("FIX", "Conv. SC", "Ours", "Ours-b") and the
    paper's headline ratios (energy vs conventional SC and vs binary,
    ADP vs binary).
    """
    serial_cyc = avg_mac_cycles_from_weights(weights, precision, 1)
    par_cyc = avg_mac_cycles_from_weights(weights, precision, bit_parallel)
    rows = [
        _row("FIX", fixed_point_mac(precision, acc_bits), size, lanes, clock_ghz, None),
        _row("Conv. SC", lfsr_sc_mac(precision, acc_bits), size, lanes, clock_ghz, None),
        _row("Ours", proposed_mac(precision, acc_bits), size, lanes, clock_ghz, serial_cyc),
        _row(
            f"Ours-{bit_parallel}",
            proposed_mac(precision, acc_bits, bit_parallel),
            size,
            lanes,
            clock_ghz,
            par_cyc,
        ),
    ]
    by = {r.label: r for r in rows}
    ours_best = by[f"Ours-{bit_parallel}"]
    ratios = {
        "energy_gain_vs_conv_sc": by["Conv. SC"].energy_per_mac_pj / ours_best.energy_per_mac_pj,
        "energy_gain_vs_binary": by["FIX"].energy_per_mac_pj / ours_best.energy_per_mac_pj,
        "adp_reduction_vs_binary": 1.0 - ours_best.adp_um2_cycles / by["FIX"].adp_um2_cycles,
        "serial_energy_gain_vs_conv_sc": (
            by["Conv. SC"].energy_per_mac_pj / by["Ours"].energy_per_mac_pj
        ),
    }
    return {"rows": rows, "ratios": ratios, "precision": precision}
