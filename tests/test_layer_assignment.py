"""White-box tests for the router's layer assignment and via accounting."""

import pytest

from repro.layout.geometry import Point, Rect
from repro.layout.grid import GCellGrid
from repro.layout.netlist import Design
from repro.layout.technology import make_ispd2015_like_technology
from repro.route.router import _straight_runs, route_design


def _line_design(horizontal: bool = True, ndr: str | None = None) -> Design:
    """Two connected cells three g-cells apart along one axis."""
    tech = make_ispd2015_like_technology()
    g = tech.gcell_size
    d = Design(name="line", technology=tech, die=Rect(0, 0, 5 * g, 5 * g))
    a = d.add_cell("a", 40, tech.row_height)
    b = d.add_cell("b", 40, tech.row_height)
    if horizontal:
        a.position = Point(0.5 * g, 2 * g + 10)
        b.position = Point(3.5 * g, 2 * g + 10)
    else:
        a.position = Point(2 * g + 10, 0.5 * g)
        b.position = Point(2 * g + 10, 3.5 * g)
    net = d.add_net("n0", ndr=ndr)
    net.connect(a.add_pin("p", Point(1, 1)))
    net.connect(b.add_pin("p", Point(1, 1)))
    return d


def _route(d: Design):
    return route_design(d, GCellGrid.for_design_die(d.die, d.technology))


class TestLayerAssignment:
    def test_horizontal_net_loads_horizontal_layers(self):
        d = _line_design(horizontal=True)
        rr = _route(d)
        rg = rr.rgrid
        h_load = sum(rg.metal_load[m].sum() for m in rg.h_layers)
        v_load = sum(rg.metal_load[m].sum() for m in rg.v_layers)
        assert h_load == pytest.approx(3.0)  # 3 edges crossed
        assert v_load == 0.0

    def test_vertical_net_loads_vertical_layers(self):
        d = _line_design(horizontal=False)
        rr = _route(d)
        rg = rr.rgrid
        h_load = sum(rg.metal_load[m].sum() for m in rg.h_layers)
        v_load = sum(rg.metal_load[m].sum() for m in rg.v_layers)
        assert v_load == pytest.approx(3.0)
        assert h_load == 0.0

    def test_pin_access_via_stacks(self):
        d = _line_design(horizontal=True)
        rr = _route(d)
        rg = rr.rgrid
        # wire rides a horizontal GR layer (M3 or M5); each endpoint grows a
        # via stack from M1 up to that layer, plus 1 V1 per pin access
        wire_layer = next(m for m in rg.h_layers if rg.metal_load[m].sum() > 0)
        grid = rg.grid
        a_cell = grid.cell_of_point(d.cells[0].pins[0].position)
        for v in range(1, wire_layer):
            assert rg.via_load[v][a_cell] >= 1.0, f"missing V{v} at endpoint"
        # V1 also counts the plain pin access of both pins
        assert rg.via_load[1].sum() >= 2.0

    def test_ndr_net_consumes_double_tracks(self):
        plain = _route(_line_design(horizontal=True))
        ndr = _route(_line_design(horizontal=True, ndr="ndr_2w2s"))
        plain_load = sum(plain.rgrid.metal_load[m].sum() for m in (3, 5))
        ndr_load = sum(ndr.rgrid.metal_load[m].sum() for m in (3, 5))
        assert ndr_load == pytest.approx(2 * plain_load)

    def test_bend_produces_intermediate_vias(self):
        """An L-shaped net bends once; the bend cell gets a via stack
        between the two wire layers."""
        tech = make_ispd2015_like_technology()
        g = tech.gcell_size
        d = Design(name="bend", technology=tech, die=Rect(0, 0, 5 * g, 5 * g))
        a = d.add_cell("a", 40, tech.row_height)
        b = d.add_cell("b", 40, tech.row_height)
        a.position = Point(0.5 * g, 0.5 * g)
        b.position = Point(3.5 * g, 3.5 * g)
        net = d.add_net("n0")
        net.connect(a.add_pin("p", Point(1, 1)))
        net.connect(b.add_pin("p", Point(1, 1)))
        rr = _route(d)
        rg = rr.rgrid
        # both directions carry load
        assert sum(rg.metal_load[m].sum() for m in rg.h_layers) > 0
        assert sum(rg.metal_load[m].sum() for m in rg.v_layers) > 0
        # and some via layer above V1 is used (bend or pin stacks)
        assert sum(rg.via_load[v].sum() for v in (2, 3, 4)) > 0

    def test_straight_runs_helper(self):
        runs = _straight_runs(
            [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (3, 2)]
        )
        assert [r[0] for r in runs] == ["H", "V", "H"]
        assert runs[0][1] == [(0, 0), (1, 0), (2, 0)]
        assert runs[1][1] == [(2, 0), (2, 1), (2, 2)]

    def test_straight_runs_single_cell(self):
        assert _straight_runs([(1, 1)]) == []
