"""Golden of the shapes net through the integer conv engines.

``build_cifar_net`` is the only topology with padded convolutions
(``pad=2``), overlapping 3x3/2 max-pooling and average pooling, so it
is the net that checks the conv path's padding and pooling against a
pinned answer.  Its three conv layers run under fixed-point, LFSR-SC
(the default pair and the ``mip`` family) and proposed-SC arithmetic
at N=8, and the golden holds the classes, the input of the first
``Dense`` layer (the pre-head activations) and the output of every conv
layer, each as a SHA-256 of its float64 bytes plus a readable sample.
The conv outputs keep the pin informative where the pre-head is not:
the shared-LFSR default's bias drives conv2 to the negative rail, so
its pre-head activations are all zero after the ReLU.

The ranges are fixed here rather than calibrated: calibration runs a
float GEMM, whose last bits may differ between BLAS builds.  These
engines compute every conv product in integers, and nothing before the
head calls BLAS, so the pre-head activations are the same on any
machine.  (Truncated-SC with ``rescale=True`` goes through a float64
matmul, so it is pinned by the layer oracles of
``tests/nn/test_conv_oracles.py`` only.)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import attach_engines, build_cifar_net
from repro.nn.calibration import LayerRanges
from repro.nn.layers import Conv2D, Dense

N_BITS = 8
#: conv1 sees images in [-1, 1]; conv2 and conv3 scale their inputs by 4
RANGES = [LayerRanges(1.0, 0.64), LayerRanges(2.3, 0.24), LayerRanges(2.9, 0.29)]
ENGINES = (("fixed", None), ("lfsr-sc", None), ("lfsr-sc", "mip"), ("proposed-sc", None))


@pytest.fixture(scope="module")
def images() -> np.ndarray:
    return np.random.default_rng(2018).uniform(-1.0, 1.0, size=(8, 3, 32, 32))


def digest(name: str, act: np.ndarray) -> str:
    """One golden line: shape, SHA-256 of the float64 bytes, a sample."""
    sha = hashlib.sha256(np.ascontiguousarray(act, dtype="<f8").tobytes()).hexdigest()
    sample = " ".join(repr(float(v)) for v in act.reshape(len(act), -1)[0, :4])
    return f"  {name} {act.shape} sha256 {sha}\n    [0, :4] {sample}\n"


def render(kind: str, generator, images: np.ndarray) -> str:
    """Classes, every conv output and the pre-head activations of one engine."""
    net = build_cifar_net(seed=0)
    attach_engines(net, kind, RANGES, n_bits=N_BITS)
    head = next(i for i, layer in enumerate(net.layers) if isinstance(layer, Dense))
    lines = [f"{kind} generator={generator}\n"]
    x = images
    for i, layer in enumerate(net.layers):
        if i == head:
            lines.append(digest("pre-head", x))
        if isinstance(layer, Conv2D):
            x = layer.forward(x, generator=generator)
            lines.append(digest(f"layer{i}.conv", x))
        else:
            x = layer.forward(x)
    lines.insert(1, f"  classes {x.argmax(axis=1).tolist()}\n")
    return "".join(lines)


def test_shapes_net_matches_golden(golden, images):
    text = "".join(render(kind, generator, images) for kind, generator in ENGINES)
    golden.check("shapes_net_n8.txt", text)
