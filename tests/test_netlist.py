"""Tests for the netlist/design data model."""

import pickle

import pytest

from repro.layout.geometry import Point, Rect
from repro.layout.netlist import Design
from repro.layout.technology import make_ispd2015_like_technology


@pytest.fixture()
def design():
    tech = make_ispd2015_like_technology()
    return Design(
        name="unit", technology=tech, die=Rect(0, 0, 10 * tech.gcell_size, 10 * tech.gcell_size)
    )


class TestCellsAndPins:
    def test_unplaced_pin_position_raises(self, design):
        cell = design.add_cell("c0", 40, 120)
        pin = cell.add_pin("a", Point(5, 5))
        with pytest.raises(RuntimeError):
            _ = pin.position

    def test_placed_pin_position(self, design):
        cell = design.add_cell("c0", 40, 120)
        pin = cell.add_pin("a", Point(5, 7))
        cell.position = Point(100, 200)
        assert pin.position == Point(105, 207)

    def test_cell_bbox(self, design):
        cell = design.add_cell("c0", 40, 120)
        cell.position = Point(10, 20)
        assert cell.bbox == Rect(10, 20, 50, 140)

    def test_duplicate_cell_name_detected(self, design):
        design.add_cell("c0", 40, 120)
        design.add_cell("c0", 40, 120)
        with pytest.raises(ValueError, match="duplicate"):
            design.validate()


class TestNets:
    def test_connect_and_backrefs(self, design):
        a = design.add_cell("a", 40, 120).add_pin("p", Point(1, 1))
        b = design.add_cell("b", 40, 120).add_pin("p", Point(1, 1))
        net = design.add_net("n0")
        net.connect(a)
        net.connect(b)
        assert net.degree == 2
        assert a.net is net

    def test_double_connect_raises(self, design):
        a = design.add_cell("a", 40, 120).add_pin("p", Point(1, 1))
        design.add_net("n0").connect(a)
        with pytest.raises(ValueError):
            design.add_net("n1").connect(a)

    def test_clock_net_marks_pins(self, design):
        a = design.add_cell("a", 40, 120).add_pin("p", Point(1, 1))
        design.add_net("clk", is_clock=True).connect(a)
        assert a.is_clock

    def test_ndr_validated_on_creation(self, design):
        with pytest.raises(KeyError):
            design.add_net("n0", ndr="bogus")

    def test_ndr_pin_property(self, design):
        a = design.add_cell("a", 40, 120).add_pin("p", Point(1, 1))
        design.add_net("n0", ndr="ndr_2w2s").connect(a)
        assert a.ndr == "ndr_2w2s"

    def test_hpwl(self, design):
        a = design.add_cell("a", 40, 120)
        b = design.add_cell("b", 40, 120)
        a.position = Point(0, 0)
        b.position = Point(100, 50)
        net = design.add_net("n0")
        net.connect(a.add_pin("p", Point(0, 0)))
        net.connect(b.add_pin("p", Point(0, 0)))
        assert net.hpwl() == 150

    def test_signal_nets_exclude_clock_and_dangling(self, design):
        cells = [design.add_cell(f"c{i}", 40, 120) for i in range(4)]
        pins = [c.add_pin("p", Point(1, 1)) for c in cells]
        sig = design.add_net("n0")
        sig.connect(pins[0])
        sig.connect(pins[1])
        clk = design.add_net("clk", is_clock=True)
        clk.connect(pins[2])
        clk.connect(pins[3])
        design.add_net("dangling")  # zero pins
        assert design.signal_nets() == [sig]

    def test_long_net_chain_pickles_with_its_links(self, design):
        # regression: a pickled pin followed its net, whose pins followed
        # their cells, ... so a flow result's design overflowed the
        # recursion limit on its way back from a worker process
        cells = [design.add_cell(f"c{i}", 40, 120) for i in range(2000)]
        for i, (left, right) in enumerate(zip(cells, cells[1:])):
            net = design.add_net(f"n{i}", is_clock=i == 0)
            net.connect(left.add_pin("o", Point(0, 0)))
            net.connect(right.add_pin("i", Point(1, 1)))
        cells[0].add_pin("unconnected", Point(2, 2))
        back = pickle.loads(pickle.dumps(design))
        assert [n.name for n in back.nets] == [n.name for n in design.nets]
        for cell in back.cells:
            assert all(pin.cell is cell for pin in cell.pins)
        for net in back.nets:
            assert all(pin.net is net for pin in net.pins)
        assert back.cells[0].pins[-1].net is None
        assert [p.is_clock for p in back.nets[0].pins] == [True, True]
        assert back.nets[1].pins[0] is back.cells[1].pins[1]


class TestMacrosAndBlockages:
    def test_macro_outside_die_raises(self, design):
        with pytest.raises(ValueError):
            design.add_macro("m", Rect(-10, 0, 100, 100))

    def test_routing_blockage_layers(self, design):
        design.add_macro("m", Rect(0, 0, 480, 480))
        assert design.routing_blockage_rects(1)  # M1 blocked by default
        assert design.routing_blockage_rects(3)
        assert not design.routing_blockage_rects(5)  # M5 open over macros

    def test_placement_blockages_include_macros(self, design):
        design.add_macro("m", Rect(0, 0, 480, 480))
        assert len(design.placement_blockage_rects()) == 1
