"""Max and average pooling (non-overlapping or strided windows)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "AvgPool2D"]


def _window_view(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    """(N, C, OH, OW, size, size) sliding-window view."""
    n, c, h, w = x.shape
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, size, size),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )


class MaxPool2D(Layer):
    """Max pooling with window ``size`` and the given ``stride``.

    ``forward`` is ``np.maximum`` over the ``size**2`` strided slices of
    ``x``, one per window element, in row-major window order.  Each
    step is ``np.maximum(later, earlier)``, and numpy's maximum returns
    its second operand when the two compare equal (as its x86-64 builds
    do), so a tie keeps the first window element, as ``argmax`` does;
    that is what decides between ``-0.0`` and ``0.0``
    (``tests/nn/test_conv_oracles.py`` pins it against the argmax
    formula).  No window indices are computed: the layer keeps a
    reference to its input, and ``backward`` recomputes the argmax
    indices from it.
    """

    def __init__(self, size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.size, self.stride
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        out = None
        for kh in range(k):
            for kw in range(k):
                part = x[:, :, kh : kh + s * oh : s, kw : kw + s * ow : s]
                out = part.copy() if out is None else np.maximum(part, out, out=out)
        self._input = x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward before forward")
        x_shape = self._input.shape
        win = _window_view(self._input, self.size, self.stride)
        idx = win.reshape(*win.shape[:4], -1).argmax(axis=-1)
        n, c, h, w = x_shape
        _, _, oh, ow = grad.shape
        dx = np.zeros(x_shape, dtype=grad.dtype)
        kh, kw = np.divmod(idx, self.size)
        ns, cs, rs, ws = np.indices((n, c, oh, ow), sparse=False)
        dx_rows = rs * self.stride + kh
        dx_cols = ws * self.stride + kw
        np.add.at(dx, (ns, cs, dx_rows, dx_cols), grad)
        return dx


class AvgPool2D(Layer):
    """Average pooling with window ``size`` and the given ``stride``."""

    def __init__(self, size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = _window_view(x, self.size, self.stride)
        self._x_shape = x.shape
        return win.mean(axis=(-1, -2))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward before forward")
        n, c, h, w = self._x_shape
        _, _, oh, ow = grad.shape
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        share = grad / (self.size * self.size)
        for kh in range(self.size):
            for kw in range(self.size):
                dx[
                    :,
                    :,
                    kh : kh + self.stride * oh : self.stride,
                    kw : kw + self.stride * ow : self.stride,
                ] += share
        return dx
