"""Tests for the Fig. 5 error-statistics machinery."""

import numpy as np
import pytest

from repro.analysis.error_stats import (
    conventional_error_stats,
    error_statistics,
    proposed_error_stats,
)
from repro.core.signed import bisc_multiply_signed, exact_product_lsb


class TestProposedStats:
    def test_final_checkpoint_matches_direct_enumeration(self):
        """At the last checkpoint every multiply has fully completed, so
        the stats must equal direct enumeration of the multiplier."""
        n = 5
        stats = proposed_error_stats(n)
        half = 1 << (n - 1)
        v = np.arange(-half, half)
        est = bisc_multiply_signed(v[:, None], v[None, :], n) / half
        err = est - exact_product_lsb(v[:, None], v[None, :], n) / half
        assert stats.std[-1] == pytest.approx(err.std())
        assert stats.max_abs[-1] == pytest.approx(np.abs(err).max())
        assert stats.mean[-1] == pytest.approx(err.mean())
        assert stats.std[-1] < 0.06

    def test_deterministic(self):
        a = proposed_error_stats(6)
        b = proposed_error_stats(6)
        assert np.array_equal(a.std, b.std)

    def test_error_shrinks_with_precision(self):
        assert proposed_error_stats(8).std[-1] < proposed_error_stats(5).std[-1]

    def test_converges_along_checkpoints(self):
        s = proposed_error_stats(8)
        assert s.std[-1] < s.std[1]


class TestConventionalStats:
    @pytest.mark.parametrize("method", ["lfsr", "halton", "ed"])
    def test_runs_and_shrinks(self, method):
        s = conventional_error_stats(method, 6)
        assert s.std[-1] < s.std[0]
        assert s.max_abs[-1] <= 2.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            conventional_error_stats("xorshift", 6)

    def test_halton_beats_lfsr(self):
        """The paper: 'among the conventional SC methods the Halton
        method is the most accurate'."""
        halton = conventional_error_stats("halton", 8)
        lfsr = conventional_error_stats("lfsr", 8)
        assert halton.std[-1] < lfsr.std[-1]


class TestCombined:
    def test_fig5_claims_at_n8(self):
        stats = error_statistics(8)
        final_std = {m: s.std[-1] for m, s in stats.items()}
        assert final_std["proposed"] < final_std["halton"] < final_std["lfsr"]
        assert final_std["ed"] > final_std["halton"]
        assert max(final_std[m] for m in ("lfsr", "halton", "ed")) < 0.2
        # zero-biased
        assert abs(stats["proposed"].mean[-1]) < 1e-2
        # ours' max error of the order of halton's std (paper's Fig. 5 note)
        assert stats["proposed"].max_abs[-1] < 3 * final_std["halton"]

    def test_custom_checkpoints(self):
        s = proposed_error_stats(6, checkpoints=np.array([8, 64]))
        assert s.checkpoints.tolist() == [8, 64]
        assert s.std.shape == (2,)

    def test_final_summary(self):
        s = proposed_error_stats(5)
        f = s.final()
        assert set(f) == {"mean", "std", "max_abs"}
