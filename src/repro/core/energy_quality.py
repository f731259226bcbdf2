"""Dynamic energy-quality trade-off for the proposed multiplier.

The paper's Section 4.3.2 notes that its comparison ignores "the
inherent advantages of SC such as dynamic energy-quality tradeoff";
this module implements that advantage for the proposed SC-MAC, in the
spirit of Kim et al. DAC'16 [8]'s early decision termination.

Because the stream value *is* the running result, a BISC multiply can
be stopped after any number of cycles and still return the best
available estimate: truncating the down-counter load from ``|w_int|``
to ``min(|w_int|, budget)`` trades cycles (energy) for accuracy in a
controlled way.  Two policies are provided:

* :func:`truncated_multiply` — hard per-multiply cycle cap; the partial
  counter is rescaled by the completed fraction (a shift-free estimate
  would keep the raw counter; we expose both).
* :func:`magnitude_cap_weights` — the static variant: clip weight
  magnitudes at quantization time so *no* multiply exceeds the budget,
  which needs no extra hardware at all.

The matrix product under a budget is
:func:`repro.core.kernels.truncated_matmul_kernel`.
"""

from __future__ import annotations

import numpy as np

from repro.core.fsm_generator import prefix_ones
from repro.core.kernels import truncated_matmul_kernel
from repro.sc.encoding import signed_range, to_offset_binary

__all__ = [
    "truncated_multiply",
    "magnitude_cap_weights",
    "energy_quality_curve",
]


def truncated_multiply(w_int, x_int, n_bits: int, cycle_budget: int, rescale: bool = True):
    """Signed BISC multiply stopped after at most ``cycle_budget`` cycles.

    With ``rescale`` the partial up/down count is scaled by
    ``|w_int| / cycles_run`` (the unbiased estimate of the full result);
    without it the raw truncated count is returned, which estimates the
    product of the *capped* weight — cheaper, but biased toward zero.
    Broadcasts over arrays; returns float64 (rescaling is fractional).
    """
    if cycle_budget < 0:
        raise ValueError("cycle_budget must be >= 0")
    w = np.asarray(w_int, dtype=np.int64)
    x = np.asarray(x_int, dtype=np.int64)
    lo, hi = signed_range(n_bits)
    for name, arr in (("w_int", w), ("x_int", x)):
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise ValueError(f"{name} out of {n_bits}-bit signed range")
    k = np.abs(w)
    c = np.minimum(k, cycle_budget)  # cycles actually run
    offset = to_offset_binary(x, n_bits)
    ones = prefix_ones(offset, c, n_bits)
    ud = (2 * ones - c).astype(np.float64)
    if rescale:
        with np.errstate(divide="ignore", invalid="ignore"):
            ud = np.where(c > 0, ud * (k / np.maximum(c, 1)), 0.0)
    out = np.where(w >= 0, ud, -ud)
    return float(out) if out.ndim == 0 else out


def magnitude_cap_weights(w_int, n_bits: int, cycle_budget: int):
    """Clip weight magnitudes so every multiply fits the cycle budget."""
    w = np.asarray(w_int, dtype=np.int64)
    lo, hi = signed_range(n_bits)
    if w.size and (w.min() < lo or w.max() > hi):
        raise ValueError(f"w_int out of {n_bits}-bit signed range")
    return np.clip(w, -cycle_budget, cycle_budget)


def energy_quality_curve(
    w_int: np.ndarray,
    x_int: np.ndarray,
    n_bits: int,
    budgets: list[int] | np.ndarray,
    rescale: bool = True,
) -> list[dict[str, float]]:
    """RMS error and average cycles per multiply across cycle budgets.

    The energy-quality curve of the paper's cited advantage: each entry
    reports the budget, the realized average cycles (energy proxy) and
    the RMS error versus the *untruncated* double-precision product.
    """
    w = np.asarray(w_int, dtype=np.int64)
    x = np.asarray(x_int, dtype=np.int64)
    exact = (w[:, :, None] * x[None, :, :]).sum(axis=1) / float(1 << (n_bits - 1))
    k = np.abs(w)
    out = []
    for budget in budgets:
        est = truncated_matmul_kernel(w, x, n_bits, int(budget), rescale)
        err = est - exact
        out.append(
            {
                "budget": float(budget),
                "avg_cycles": float(np.minimum(k, budget).mean()),
                "rms_error": float(np.sqrt((err**2).mean())),
                "max_error": float(np.abs(err).max()),
            }
        )
    return out
