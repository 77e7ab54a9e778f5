"""Tests for the combined paper report."""

import pytest

from repro.experiments.paper_report import (
    ALL_SECTIONS,
    ReportScale,
    generate_paper_report,
)


class TestPaperReport:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections"):
            generate_paper_report(sections=("fig99",))

    def test_scales(self):
        assert ReportScale.quick().portfolio_scale < (
            ReportScale.thorough().portfolio_scale
        )

    def test_single_section_runs(self):
        scale = ReportScale(
            portfolio_scale=0.003,
            small_instance_scale=0.1,
            large_instance_scale=0.04,
            large_seeds=1,
        )
        text = generate_paper_report(
            scale=scale, sections=("fig3-fig4",)
        )
        assert "Figures 3 and 4" in text
        assert "Figure 3" in text

    def test_sections_tuple_complete(self):
        assert set(ALL_SECTIONS) == {
            "fig3-fig4",
            "table1-fig5",
            "table2-fig6",
            "ablations",
        }
