"""Tests for the ablation harnesses A1 and A2 (A3 needs a trained model
and lives in the integration suite)."""

import pytest

from repro.experiments import ablation_parallelism, ablation_stream


class TestStreamAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.stream: r for r in ablation_stream.run(n_bits=7)}

    def test_fsm_is_most_accurate(self, rows):
        for by in (rows, {r.stream: r for r in ablation_stream.run(n_bits=8)}):
            others = [r.std for name, r in by.items() if name != "fsm"]
            assert by["fsm"].std <= min(others) + 1e-12

    def test_lfsr_is_least_accurate(self, rows):
        others = [r.std for name, r in rows.items() if name != "lfsr"]
        assert rows["lfsr"].std >= max(others)

    def test_all_near_zero_mean(self, rows):
        for r in rows.values():
            assert abs(r.mean) < 0.05

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            ablation_stream.run(n_bits=5, streams=("noise",))

    def test_main_renders(self):
        out = ablation_stream.main(n_bits=5)
        assert "fsm" in out


class TestParallelismAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablation_parallelism.run(precision=9)

    def test_latency_monotone_decreasing(self, rows):
        cyc = [r.avg_cycles for r in rows]
        assert cyc == sorted(cyc, reverse=True)

    def test_area_monotone_increasing(self, rows):
        areas = [r.mac_area_um2 for r in rows]
        assert areas == sorted(areas)

    def test_adp_optimum_is_interior(self, rows):
        """Neither bit-serial nor max parallelism minimizes ADP."""
        best = ablation_parallelism.best_adp(rows)
        assert 2 <= best.bit_parallel <= 16

    def test_main_renders(self):
        out = ablation_parallelism.main()
        assert "ADP-optimal" in out
