"""Tests for the dynamic energy-quality trade-off."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.energy_quality import (
    energy_quality_curve,
    magnitude_cap_weights,
    truncated_multiply,
)
from repro.core.kernels import truncated_matmul_kernel
from repro.core.signed import bisc_multiply_signed


class TestTruncatedMultiply:
    @given(st.integers(2, 8), st.integers(), st.integers())
    def test_generous_budget_matches_full_multiply(self, n, sw, sx):
        half = 1 << (n - 1)
        w = -half + (sw % (2 * half))
        x = -half + (sx % (2 * half))
        got = truncated_multiply(w, x, n, cycle_budget=half)
        assert got == pytest.approx(float(bisc_multiply_signed(w, x, n)))

    def test_zero_budget_returns_zero(self):
        assert truncated_multiply(-100, 87, 8, 0) == 0.0

    def test_rescaling_corrects_magnitude_shrinkage(self, rng):
        n = 8
        w = rng.integers(-128, 128, size=2000)
        x = rng.integers(-128, 128, size=2000)
        exact = w * x / 128.0
        rescaled = truncated_multiply(w, x, n, cycle_budget=8, rescale=True)
        raw = truncated_multiply(w, x, n, cycle_budget=8, rescale=False)
        # raw truncation estimates the product of the *capped* weight,
        # shrinking magnitudes toward zero; rescaling undoes that
        assert np.abs(raw).mean() < 0.5 * np.abs(exact).mean()
        shrink_raw = abs(np.abs(raw).mean() - np.abs(exact).mean())
        shrink_rescaled = abs(np.abs(rescaled).mean() - np.abs(exact).mean())
        assert shrink_rescaled < shrink_raw

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            truncated_multiply(1, 1, 4, -1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            truncated_multiply(200, 0, 8, 4)


class TestTruncatedMatmul:
    def test_generous_budget_matches_reference(self, rng):
        n = 6
        w = rng.integers(-32, 32, size=(3, 7))
        x = rng.integers(-32, 32, size=(7, 4))
        got = truncated_matmul_kernel(w, x, n, cycle_budget=32)
        ref = bisc_multiply_signed(w[:, :, None], x[None, :, :], n).sum(axis=1)
        assert np.allclose(got, ref)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            truncated_matmul_kernel(np.zeros((2, 3)), np.zeros((4, 2)), 4, 2)


class TestMagnitudeCap:
    def test_clips_symmetrically(self):
        w = np.array([-100, -5, 0, 5, 100])
        assert magnitude_cap_weights(w, 8, 16).tolist() == [-16, -5, 0, 5, 16]

    def test_range_check(self):
        with pytest.raises(ValueError):
            magnitude_cap_weights(np.array([300]), 8, 16)


class TestCurve:
    def test_monotone_tradeoff(self, rng):
        n = 8
        w = rng.integers(-100, 100, size=(4, 32))
        x = rng.integers(-128, 128, size=(32, 8))
        curve = energy_quality_curve(w, x, n, budgets=[2, 8, 32, 128])
        cycles = [r["avg_cycles"] for r in curve]
        errors = [r["rms_error"] for r in curve]
        assert cycles == sorted(cycles)
        # quality improves (weakly) as budget grows, strictly from 2 to 128
        assert errors[-1] < errors[0]
        assert all(e >= errors[-1] - 1e-9 for e in errors)

    def test_full_budget_error_is_sc_error_only(self, rng):
        n = 6
        w = rng.integers(-32, 32, size=(2, 10))
        x = rng.integers(-32, 32, size=(10, 3))
        curve = energy_quality_curve(w, x, n, budgets=[32])
        # residual is the multiplier's own error, bounded by N/2 per term
        assert curve[0]["max_error"] <= 10 * n / 2
