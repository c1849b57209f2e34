"""Tests for Table I statistics assembly and rendering."""

from repro.layout.design_stats import (
    DesignStats,
    format_table1,
    group_statistics,
)


def _stats(name="d1", gcells=100, hotspots=5, macros=2, cells=1500):
    return DesignStats(
        name=name,
        num_gcells=gcells,
        num_hotspots=hotspots,
        num_macros=macros,
        num_cells=cells,
        layout_width_um=66.0,
        layout_height_um=66.0,
    )


class TestDesignStats:
    def test_cells_k(self):
        assert _stats(cells=2500).cells_k == 2.5

    def test_hotspot_rate(self):
        assert _stats(gcells=200, hotspots=10).hotspot_rate == 0.05
        assert _stats(gcells=0, hotspots=0).hotspot_rate == 0.0

    def test_format_row_contains_fields(self):
        row = _stats().format_row()
        assert "d1" in row
        assert "100" in row
        assert "66x66" in row


class TestGroupStats:
    def test_sums(self):
        g = group_statistics("Group 1", [_stats("a", 100, 5), _stats("b", 50, 2)])
        assert g.num_gcells == 150
        assert g.num_hotspots == 7

    def test_format_table1(self):
        groups = [
            (
                group_statistics("Group 1", [_stats("a"), _stats("b")]),
                [_stats("a"), _stats("b")],
            )
        ]
        text = format_table1(groups)
        assert "Group 1" in text
        assert "#G-cells" in text
        assert text.count("\n") >= 4
