"""Tests for the Table 3 accelerator comparison."""

import pytest

from repro.hw.accelerators import PUBLISHED_ACCELERATORS, proposed_entry, table3


class TestPublishedRows:
    def test_count_and_labels(self):
        assert len(PUBLISHED_ACCELERATORS) == 6
        labels = [e.label for e in PUBLISHED_ACCELERATORS]
        assert "DAC'16 [8]" in labels

    def test_derived_metrics_match_paper(self):
        """Spot-check the GOPS/mm^2 and GOPS/W columns of Table 3."""
        by = {e.label: e for e in PUBLISHED_ACCELERATORS}
        assert by["ASPLOS'14 [5]"].gops_per_mm2 == pytest.approx(592.94, rel=0.01)
        assert by["ISSCC'15 [13]"].gops_per_w == pytest.approx(1930.08, rel=0.01)
        assert by["DAC'16 [8]"].gops_per_w == pytest.approx(21038.79, rel=0.01)


class TestProposedRow:
    def test_default_matches_paper_scale(self):
        """Our computed row lands near the paper's (0.06 mm^2, 25 mW,
        352 GOPS, 6242 GOPS/mm^2, 14030 GOPS/W)."""
        e = proposed_entry()
        assert e.area_mm2 == pytest.approx(0.06, rel=0.30)
        assert e.power_mw == pytest.approx(25.06, rel=0.40)
        assert e.gops == pytest.approx(351.55, rel=0.30)
        assert e.gops_per_mm2 == pytest.approx(6242.0, rel=0.40)
        assert e.gops_per_w == pytest.approx(14030.0, rel=0.40)

    def test_highest_area_efficiency(self):
        """Paper: ours has the highest area efficiency of the table."""
        rows = table3()
        ours = rows[-1]
        assert ours.label.startswith("Proposed")
        assert ours.gops_per_mm2 == max(r.gops_per_mm2 for r in rows)

    def test_scales_with_array_size(self):
        small = proposed_entry(size=64, lanes=16)
        big = proposed_entry(size=256, lanes=16)
        assert big.gops == pytest.approx(4 * small.gops, rel=0.01)
        assert big.area_mm2 > small.area_mm2
