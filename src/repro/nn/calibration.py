"""Static range calibration and engine wiring for quantized/SC nets.

The paper keeps operands in ``[-1, 1)`` by static scaling ("for the
CIFAR-10 net we scale the input feature map before/after convolution by
128").  We generalize that: a calibration batch is pushed through the
float net, the maximum absolute conv input and weight per layer are
recorded, and power-of-two scales are derived.  The same scales are
then used for every arithmetic (fixed-point, conventional SC,
proposed SC) so the comparison is apples-to-apples, as in Section 4.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn.engines import make_engine
from repro.nn.network import Network

__all__ = ["LayerRanges", "pow2_ceil", "calibrate_conv_ranges", "attach_engines"]


def pow2_ceil(v: float) -> float:
    """Smallest power of two >= ``v`` (at least 1.0)."""
    if v <= 1.0:
        return 1.0
    return float(2 ** math.ceil(math.log2(v)))


@dataclass(frozen=True)
class LayerRanges:
    """Calibrated operand ranges of one conv layer."""

    max_abs_input: float
    max_abs_weight: float

    @property
    def x_scale(self) -> float:
        """Power-of-two input scale keeping activations in [-1, 1)."""
        return pow2_ceil(self.max_abs_input)

    @property
    def w_scale(self) -> float:
        """Power-of-two weight scale keeping weights in [-1, 1)."""
        return pow2_ceil(self.max_abs_weight)


def calibrate_conv_ranges(
    net: Network, x_calib: np.ndarray, percentile: float = 99.7
) -> list[LayerRanges]:
    """Run a float forward pass and record per-conv-layer ranges.

    The net's current engines are used, so call this while the net is
    still on float engines (its natural state after training).  The
    input range is taken at ``percentile`` of ``|x|`` rather than the
    absolute max: a handful of outliers would otherwise double the
    scale and halve the resolution of *every* quantized engine (the
    out-of-range tail is saturated by the quantizer instead).
    """
    return [
        LayerRanges(
            max_abs_input=float(np.percentile(np.abs(x), percentile)),
            max_abs_weight=float(np.abs(c.weight.value).max()),
        )
        for c, x in zip(net.conv_layers, net.conv_inputs(x_calib))
    ]


def attach_engines(
    net: Network,
    kind: str,
    ranges: list[LayerRanges],
    n_bits: int,
    acc_bits: int = 2,
    saturate: str | None = "final",
    **engine_kwargs,
) -> None:
    """Attach one freshly built engine per conv layer.

    ``kind`` is any :func:`repro.nn.engines.make_engine` kind; scales
    come from the calibrated ``ranges`` (pass ``kind="float"`` to
    restore exact arithmetic — scales are then irrelevant but kept for
    uniformity).
    """
    convs = net.conv_layers
    if len(ranges) != len(convs):
        raise ValueError(f"need {len(convs)} calibrated ranges, got {len(ranges)}")
    engines = [
        make_engine(
            kind,
            n_bits=n_bits,
            acc_bits=acc_bits,
            saturate=saturate,
            w_scale=r.w_scale,
            x_scale=r.x_scale,
            **engine_kwargs,
        )
        for r in ranges
    ]
    net.set_conv_engines(engines)
