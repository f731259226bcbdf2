"""Tests for the lightweight experiment harnesses (Tables 1-3, Fig. 5)."""

import pytest

from repro.experiments import fig5_error, table1_signed, table2_area, table3_accel


class TestTable1:
    def test_reproduces_paper_exactly(self):
        assert table1_signed.verify()

    def test_trace_columns(self):
        traces = table1_signed.run()
        assert len(traces) == 6
        assert traces[1].counter == -8
        assert traces[1].reference == pytest.approx(-7.0)

    def test_main_renders(self, capsys):
        out = table1_signed.main()
        assert "MATCH" in out


class TestFig5:
    @pytest.fixture(scope="class")
    def results(self):
        return fig5_error.run(precisions=(5, 8))

    def test_all_methods_present(self, results):
        assert set(results[5]) == {"lfsr", "halton", "ed", "proposed"}

    def test_claims_all_pass(self, results):
        checks = fig5_error.claims_check(results)
        failed = [k for k, v in checks.items() if not v]
        assert not failed, failed

    def test_main_renders(self):
        out = fig5_error.main(precisions=(5,))
        assert "final std" in out and "claims:" in out


class TestTable2:
    def test_all_rows_within_10pct(self):
        for entry in table2_area.run():
            assert abs(entry["relative_error"]) < 0.10, entry["design"]

    def test_published_keys_cover_all_designs(self):
        entries = table2_area.run()
        assert len(entries) == len(table2_area.PUBLISHED_TOTALS) == 12

    def test_main_renders(self):
        out = table2_area.main()
        assert "proposed-serial" in out


class TestTable3:
    def test_synthetic_row(self):
        rows = table3_accel.run(use_trained_weights=False)
        assert rows[-1].label.startswith("Proposed")
        assert rows[-1].gops > 100

    def test_main_renders(self):
        out = table3_accel.main(use_trained_weights=False)
        assert "GOPS" in out and "Proposed" in out
