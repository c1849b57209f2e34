"""Tests for congestion-map views and the ASCII renderer."""

import numpy as np

from repro.layout.grid import WINDOW_EDGES
from repro.route.congestion import (
    render_layer_congestion,
    utilization_map,
    window_cell_via_cap_load,
    window_edge_cap_load,
)


class TestWindowLookups:
    def test_direction_mismatch_is_zero(self, small_flow):
        rgrid = small_flow.routing.rgrid
        v_edge = next(e for e in WINDOW_EDGES if e.orientation == "V")
        # M3 is horizontal: no values on V edges
        assert window_edge_cap_load(rgrid, (4, 4), v_edge, 3) == (0.0, 0.0)

    def test_matches_raw_arrays(self, small_flow):
        rgrid = small_flow.routing.rgrid
        h_edge = next(
            e for e in WINDOW_EDGES if e.orientation == "H" and e.cell_a == (0, 0)
        )
        cell = (5, 5)
        cap, load = window_edge_cap_load(rgrid, cell, h_edge, 3)
        assert cap == float(rgrid.metal_cap[3][5, 5])
        assert load == float(rgrid.metal_load[3][5, 5])

    def test_padded_edge_zero(self, small_flow):
        rgrid = small_flow.routing.rgrid
        edge = WINDOW_EDGES[0]  # touches the SW neighbourhood
        assert window_edge_cap_load(rgrid, (0, 0), edge, 3) == (0.0, 0.0)

    def test_via_lookup_matches(self, small_flow):
        rgrid = small_flow.routing.rgrid
        cap, load = window_cell_via_cap_load(rgrid, (4, 4), (1, 0), 1)
        assert cap == float(rgrid.via_cap[1][5, 4])
        assert load == float(rgrid.via_load[1][5, 4])

    def test_via_lookup_padded(self, small_flow):
        rgrid = small_flow.routing.rgrid
        assert window_cell_via_cap_load(rgrid, (0, 0), (-1, 0), 1) == (0.0, 0.0)


class TestUtilizationMap:
    def test_range_and_blocked(self, small_flow):
        rgrid = small_flow.routing.rgrid
        for m in (2, 3, 4, 5):
            util = utilization_map(rgrid, m)
            finite = util[np.isfinite(util)]
            assert (finite >= 0).all()

    def test_blocked_unused_edge_is_zero(self, small_flow):
        rgrid = small_flow.routing.rgrid
        util = utilization_map(rgrid, 2)
        blocked_unused = (rgrid.metal_cap[2] == 0) & (rgrid.metal_load[2] == 0)
        if blocked_unused.any():
            assert (util[blocked_unused] == 0).all()


class TestRenderer:
    def test_render_contains_center_marker(self, small_flow):
        text = render_layer_congestion(small_flow.routing.rgrid, 3, (5, 5))
        assert "M3" in text
        assert "[o]" in text

    def test_render_both_directions(self, small_flow):
        for m in (3, 4):
            text = render_layer_congestion(small_flow.routing.rgrid, m, (5, 5))
            assert f"M{m}" in text
            assert len(text.splitlines()) > 3

    def test_render_at_boundary(self, small_flow):
        # must not raise at the die corner
        text = render_layer_congestion(small_flow.routing.rgrid, 5, (0, 0))
        assert "[o]" in text


class TestRoutingReport:
    def test_report_contents(self, small_flow):
        from repro.route.report import layer_utilizations, routing_report

        text = routing_report(small_flow.routing, "testchip")
        assert "testchip" in text
        assert "total wirelength" in text
        assert "M3" in text and "V1" in text

        rows = layer_utilizations(small_flow.routing)
        by_layer = {r.layer: r for r in rows}
        assert len(rows) == 9  # M1..M5 + V1..V4
        assert by_layer["M1"].load == 0.0  # not used by GR
        assert by_layer["V1"].load > 0.0  # pin access vias
        for r in rows:
            assert 0.0 <= r.utilization or r.capacity == 0
