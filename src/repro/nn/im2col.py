"""im2col / col2im for NCHW convolution.

The convolution layers lower each conv to a matrix product
``W2d (M, Z*K*K) @ cols (Z*K*K, N*OH*OW)`` so that the multiply engine
(float, fixed-point or stochastic) only ever sees a plain matmul — the
same lowering a MAC-array accelerator performs in hardware.  A
quantized engine's layer input is lowered as offset words (int16), not
floats, so it is quantized once rather than once per column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["im2col", "col2im"]


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0, fill=0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower NCHW input to column matrix ``(C*K*K, N*OH*OW)``.

    Returns the column matrix, C-contiguous in ``x``'s dtype, and the
    output spatial shape.  Column ordering is sample-major then
    row-major spatial, i.e. column ``n*OH*OW + r*OW + c`` holds the
    receptive field of output pixel ``(n, r, c)``.  The border of
    ``pad`` holds ``fill``: 0 for real values, the offset word of real 0
    when ``x`` holds a quantized engine's words
    (:meth:`repro.nn.engines.MatmulEngine.encode`), which is how the
    conv layers lower their integer operands.
    """
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("kernel does not fit in the padded input")
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    # (n, oh, ow, c, kh, kw) -> (c*k*k, n*oh*ow)
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kernel * kernel, n * oh * ow)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    cols6 = cols.reshape(c, kernel, kernel, n, oh, ow)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for kh in range(kernel):
        for kw in range(kernel):
            out[:, :, kh : kh + stride * oh : stride, kw : kw + stride * ow : stride] += (
                cols6[:, kh, kw].transpose(1, 0, 2, 3)
            )
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out
