"""Activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU"]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Shard threads share this layer: read the local mask, never the
        # attribute another thread's forward may just have replaced.
        mask = self._mask = x > 0
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad * self._mask
