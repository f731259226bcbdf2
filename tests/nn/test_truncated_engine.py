"""Tests for the early-termination (truncated) SC engine."""

import numpy as np
import pytest

from repro.nn.engines import ProposedScEngine, TruncatedScEngine, make_engine


@pytest.fixture
def operands(rng):
    w = rng.uniform(-0.6, 0.6, size=(4, 25))
    x = rng.uniform(-0.9, 0.9, size=(25, 30))
    return w, x


class TestTruncatedEngine:
    def test_generous_budget_equals_proposed(self, operands):
        w, x = operands
        n = 8
        full = ProposedScEngine(n_bits=n, acc_bits=6).matmul(w, x)
        capped = TruncatedScEngine(cycle_budget=1 << (n - 1), n_bits=n, acc_bits=6).matmul(w, x)
        assert np.allclose(full, capped)

    def test_tight_budget_degrades_gracefully(self, operands):
        w, x = operands
        ref = w @ x
        errs = []
        for budget in (2, 8, 64):
            y = TruncatedScEngine(cycle_budget=budget, n_bits=8, acc_bits=6).matmul(w, x)
            errs.append(float(np.sqrt(((y - ref) ** 2).mean())))
        assert errs[0] > errs[1] > errs[2]

    def test_avg_cycles_capped(self, operands):
        w, _ = operands
        eng = TruncatedScEngine(cycle_budget=4, n_bits=8)
        assert eng.avg_cycles(w) <= 4.0

    def test_factory_kind(self):
        eng = make_engine("truncated-sc", cycle_budget=6, n_bits=8)
        assert eng.name == "truncated-sc-6"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TruncatedScEngine(cycle_budget=-1)

    @pytest.mark.parametrize("saturate", (None, "term"))
    def test_saturate_modes_it_would_ignore_are_rejected(self, saturate):
        """The sum is always clipped once, so only ``saturate="final"`` constructs."""
        with pytest.raises(ValueError, match="saturate"):
            make_engine("truncated-sc", saturate=saturate)
        assert make_engine("truncated-sc", saturate="final").saturate == "final"


class TestCnnLevelCurve:
    @pytest.mark.slow
    def test_accuracy_recovers_with_budget(self):
        from repro.experiments.ablation_energy_quality import run_cnn

        rows = run_cnn(budgets=(2, 16))
        assert rows[1]["accuracy"] > rows[0]["accuracy"] + 0.1
        assert rows[0]["avg_cycles"] < rows[1]["avg_cycles"]
