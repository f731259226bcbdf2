"""Convolution layer with a pluggable multiply engine.

The forward pass lowers the convolution to the matrix product of
Fig. 4's innermost loops and delegates it to a
:class:`repro.nn.engines.MatmulEngine` — exactly the computation the
paper maps onto its BISC-MVM array ("we apply SC to convolution layers
only").  The backward pass is always exact float (straight-through),
enabling the paper's fine-tuning procedure.
"""

from __future__ import annotations

import numpy as np

from repro.nn.engines import FloatEngine, MatmulEngine
from repro.nn.im2col import col2im, im2col
from repro.nn.layers.base import Layer, Parameter

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """2-D convolution over NCHW tensors.

    Parameters
    ----------
    in_channels, out_channels, kernel:
        Shape of the weight tensor ``(M, Z, K, K)``.
    stride, pad:
        Spatial stride and zero padding.
    engine:
        Multiply engine for the forward pass; defaults to exact float.
        Swap it at any time through :attr:`engine` (the experiments
        re-point trained nets at fixed-point / SC engines).
    rng:
        Generator for He-style weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        engine: MatmulEngine | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel * kernel
        std = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel)),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias")
        self.params = [self.weight, self.bias]
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.engine: MatmulEngine = engine or FloatEngine()
        self._cache: tuple | None = None

    @property
    def out_channels(self) -> int:
        return self.weight.value.shape[0]

    def forward(self, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        """Convolve ``x``; ``generator`` is the SNG family of this call.

        ``None`` keeps the engine's configured family; only a
        conventional-SC engine reads it (:meth:`MatmulEngine.matmul`).
        """
        n = x.shape[0]
        cols, (oh, ow) = im2col(x, self.kernel, self.stride, self.pad)
        w2d = self.weight.value.reshape(self.out_channels, -1)
        y2d = self.engine.matmul(w2d, cols, generator=generator) + self.bias.value[:, None]
        y = y2d.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
        self._cache = (x.shape, cols)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        x_shape, cols = self._cache
        n, m, oh, ow = grad.shape
        g2d = grad.transpose(1, 0, 2, 3).reshape(m, n * oh * ow)
        self.weight.grad += (g2d @ cols.T).reshape(self.weight.value.shape)
        self.bias.grad += g2d.sum(axis=1)
        w2d = self.weight.value.reshape(m, -1)
        gcols = w2d.T @ g2d
        return col2im(gcols, x_shape, self.kernel, self.stride, self.pad)
