"""Classic stochastic-computing application: Roberts-cross edge detection.

The paper's introduction motivates SC with applications "including edge
detection [2]" (Alaghi & Hayes, DATE'14).  This module implements that
canonical circuit on our SC substrate:

* ``|a - b|`` of two unipolar streams is a single XOR gate **when the
  streams share one random source** — the rare case where maximal
  correlation is the point, not a bug;
* the two gradient magnitudes are averaged by a MUX adder whose select
  stream has probability 1/2;
* a counter converts the result back to binary.

Besides being a nice demo, it exercises the substrate paths the CNN
work does not: unipolar encoding, correlated-stream operators and MUX
scaled addition.
"""

from __future__ import annotations

import numpy as np

from repro.sc.halton import HaltonSource
from repro.sc.lfsr import Lfsr

__all__ = ["roberts_cross_exact", "roberts_cross_sc", "edge_detection_error"]


def roberts_cross_exact(img: np.ndarray) -> np.ndarray:
    """Reference Roberts-cross edge magnitude, inputs/outputs in [0, 1].

    ``y[i,j] = (|x[i,j] - x[i+1,j+1]| + |x[i,j+1] - x[i+1,j]|) / 2``;
    output is one pixel smaller in each dimension.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or min(img.shape) < 2:
        raise ValueError("img must be 2-D with at least 2 pixels per side")
    d1 = np.abs(img[:-1, :-1] - img[1:, 1:])
    d2 = np.abs(img[:-1, 1:] - img[1:, :-1])
    return (d1 + d2) / 2.0


def roberts_cross_sc(
    img: np.ndarray,
    n_bits: int = 8,
    length: int | None = None,
    source: str = "lfsr",
) -> np.ndarray:
    """Stochastic Roberts cross on unipolar streams.

    Parameters
    ----------
    img:
        Grayscale image with values in ``[0, 1]``.
    length:
        Stream length; defaults to ``2**n_bits`` (at full length and a
        permutation source the XOR stage is exact).
    source:
        ``"lfsr"`` or ``"sobol"`` (bit-reversed counter) — the
        low-discrepancy source converges faster at short lengths.

    Notes
    -----
    All pixel streams share ONE random sequence, so for two pixels
    ``a >= b`` the streams satisfy ``stream(b) AND stream(a) ==
    stream(b)``; their XOR then has value exactly ``a - b`` — the
    correlated-stream subtractor of [2].  The MUX adder introduces the
    only sampling noise at full stream length.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("img values must lie in [0, 1]")
    length = (1 << n_bits) if length is None else length
    if source == "lfsr":
        rand = Lfsr(n_bits, seed=1).sequence(length)
    elif source == "sobol":
        rand = HaltonSource(n_bits, base=2).sequence(length)
    else:
        raise ValueError(f"unknown source {source!r}")
    select = (Lfsr(n_bits, seed=5, alternate=True).sequence(length) & 1).astype(bool)

    mags = np.minimum((img * (1 << n_bits)).astype(np.int64), (1 << n_bits) - 1)
    # streams[i, j, t]: comparator output of the shared source
    streams = rand[None, None, :] < mags[:, :, None]
    d1 = streams[:-1, :-1] ^ streams[1:, 1:]
    d2 = streams[:-1, 1:] ^ streams[1:, :-1]
    mux = np.where(select[None, None, :], d1, d2)
    return mux.mean(axis=2)


def edge_detection_error(
    img: np.ndarray, n_bits: int = 8, lengths: tuple[int, ...] = (16, 64, 256)
) -> list[dict]:
    """RMS error of the SC edge detector vs stream length and source."""
    exact = roberts_cross_exact(img)
    rows = []
    for length in lengths:
        for source in ("lfsr", "sobol"):
            got = roberts_cross_sc(img, n_bits=n_bits, length=length, source=source)
            rows.append(
                {
                    "length": float(length),
                    "source": source,
                    "rms_error": float(np.sqrt(((got - exact) ** 2).mean())),
                }
            )
    return rows
