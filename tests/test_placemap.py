"""Tests for per-g-cell placement statistics."""

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.layout.geometry import Point, Rect, mean_pairwise_manhattan
from repro.layout.grid import GCellGrid
from repro.layout.netlist import Design
from repro.layout.placemap import PlacementMaps
from repro.layout.technology import make_ispd2015_like_technology
from repro.place.placer import place_design


@pytest.fixture()
def setup():
    tech = make_ispd2015_like_technology()
    g = tech.gcell_size
    design = Design(name="pm", technology=tech, die=Rect(0, 0, 4 * g, 4 * g))
    grid = GCellGrid.for_design_die(design.die, tech)
    return design, grid, g


class TestCounts:
    def test_unplaced_raises(self, setup):
        design, grid, g = setup
        design.add_cell("c", 40, 120)
        with pytest.raises(ValueError):
            PlacementMaps(design, grid)

    def test_cell_fully_inside_counted_once(self, setup):
        design, grid, g = setup
        c = design.add_cell("c", 40, 120)
        c.position = Point(10, 10)  # inside g-cell (0,0)
        pm = PlacementMaps(design, grid)
        assert pm.num_cells[0, 0] == 1
        assert pm.num_cells.sum() == 1

    def test_straddling_cell_not_fully_inside(self, setup):
        design, grid, g = setup
        c = design.add_cell("c", 40, 120)
        c.position = Point(g - 20, 10)  # straddles cells (0,0)/(1,0)
        pm = PlacementMaps(design, grid)
        assert pm.num_cells.sum() == 0  # "fully inside" in neither
        # but its area is split across both
        assert pm.cell_area_frac[0, 0] > 0
        assert pm.cell_area_frac[1, 0] > 0

    def test_cell_area_fraction_sums_to_total(self, setup):
        design, grid, g = setup
        c = design.add_cell("c", 60, 120)
        c.position = Point(g - 30, g - 60)  # straddles 4 g-cells
        pm = PlacementMaps(design, grid)
        total = pm.cell_area_frac.sum() * g * g
        assert total == pytest.approx(60 * 120)

    def test_pin_counts_and_flags(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 40, 120)
        b = design.add_cell("b", 40, 120)
        a.position = Point(10, 10)
        b.position = Point(g + 10, 10)
        pa = a.add_pin("p", Point(1, 1))
        pb = b.add_pin("p", Point(1, 1))
        pc = a.add_pin("q", Point(5, 5))
        net = design.add_net("n", ndr="ndr_2w2s")
        net.connect(pa)
        net.connect(pb)
        clk = design.add_net("clk", is_clock=True)
        clk.connect(pc)
        pm = PlacementMaps(design, grid)
        assert pm.num_pins[0, 0] == 2  # pa + pc (connected pins only)
        assert pm.num_pins[1, 0] == 1
        assert pm.num_ndr_pins[0, 0] == 1
        assert pm.num_clock_pins[0, 0] == 1

    def test_unconnected_pins_ignored(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 40, 120)
        a.position = Point(10, 10)
        a.add_pin("p", Point(1, 1))  # never connected
        pm = PlacementMaps(design, grid)
        assert pm.num_pins.sum() == 0

    def test_local_net_detection(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 40, 120)
        b = design.add_cell("b", 40, 120)
        a.position = Point(10, 10)
        b.position = Point(100, 10)  # same g-cell (0,0)
        net = design.add_net("n")
        net.connect(a.add_pin("p", Point(1, 1)))
        net.connect(b.add_pin("p", Point(1, 1)))
        pm = PlacementMaps(design, grid)
        assert pm.num_local_nets[0, 0] == 1
        assert pm.num_local_net_pins[0, 0] == 2

    def test_cross_cell_net_not_local(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 40, 120)
        b = design.add_cell("b", 40, 120)
        a.position = Point(10, 10)
        b.position = Point(g + 10, 10)
        net = design.add_net("n")
        net.connect(a.add_pin("p", Point(1, 1)))
        net.connect(b.add_pin("p", Point(1, 1)))
        pm = PlacementMaps(design, grid)
        assert pm.num_local_nets.sum() == 0

    def test_pin_spacing_matches_manual(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 100, 120)
        a.position = Point(0, 0)
        p1 = a.add_pin("p1", Point(0, 0))
        p2 = a.add_pin("p2", Point(30, 40))
        net = design.add_net("n")
        net.connect(p1)
        net.connect(p2)
        pm = PlacementMaps(design, grid)
        assert pm.pin_spacing[0, 0] == pytest.approx(70.0)

    def test_blockage_fraction(self, setup):
        design, grid, g = setup
        design.add_macro("m", Rect(0, 0, g, g))  # exactly g-cell (0,0)
        c = design.add_cell("c", 40, 120)
        c.position = Point(2 * g, 2 * g)
        pm = PlacementMaps(design, grid)
        assert pm.blockage_frac[0, 0] == pytest.approx(1.0)
        assert pm.blockage_frac[1, 1] == pytest.approx(0.0)

    def test_all_maps_have_grid_shape(self, small_flow):
        pm = small_flow.placemaps
        shape = (small_flow.grid.nx, small_flow.grid.ny)
        for arr in (
            pm.num_cells,
            pm.num_pins,
            pm.num_clock_pins,
            pm.num_ndr_pins,
            pm.num_local_nets,
            pm.num_local_net_pins,
            pm.pin_spacing,
            pm.blockage_frac,
            pm.cell_area_frac,
        ):
            assert arr.shape == shape

    def test_flow_design_sanity(self, small_flow):
        pm = small_flow.placemaps
        assert pm.num_pins.sum() > 0
        assert pm.num_local_nets.sum() > 0
        assert (pm.cell_area_frac <= 1.2).all()  # legal placement, no pileups
        assert (pm.blockage_frac <= 1.0 + 1e-9).all()


class TestArrayOracle:
    """The array-built maps against per-cell and per-pin ``cell_of_point`` loops."""

    @pytest.fixture(scope="class")
    def placed(self):
        design = generate_design(DesignRecipe(
            name="oracle", grid_nx=12, grid_ny=10, num_macros=3,
            macro_area_frac=0.15, ndr_frac=0.1, seed=3,
        ))
        place_design(design)
        grid = GCellGrid.for_design_die(design.die, design.technology)
        return design, grid, PlacementMaps(design, grid)

    def test_num_cells_matches_loop(self, placed):
        design, grid, pm = placed
        expected = np.zeros((grid.nx, grid.ny), dtype=np.int32)
        for cell in design.cells:
            box = cell.bbox
            lo = grid.cell_of_point(Point(box.xlo, box.ylo))
            if lo == grid.cell_of_point(Point(box.xhi - 1e-9, box.yhi - 1e-9)):
                expected[lo] += 1
        assert design.macros and expected.sum() > 0
        assert np.array_equal(pm.num_cells, expected)

    def test_pin_maps_match_loop(self, placed):
        design, grid, pm = placed
        shape = (grid.nx, grid.ny)
        pins, clock, ndr = np.zeros(shape, int), np.zeros(shape, int), np.zeros(shape, int)
        spacing = np.zeros(shape)
        by_cell: dict[tuple[int, int], list[Point]] = {}
        for pin in design.all_pins():
            if pin.net is None:
                continue
            key = grid.cell_of_point(pin.position)
            pins[key] += 1
            clock[key] += pin.is_clock
            ndr[key] += pin.ndr is not None
            by_cell.setdefault(key, []).append(pin.position)
        for key, positions in by_cell.items():
            spacing[key] = mean_pairwise_manhattan(positions)
        assert clock.sum() > 0 and ndr.sum() > 0
        assert np.array_equal(pm.num_pins, pins)
        assert np.array_equal(pm.num_clock_pins, clock)
        assert np.array_equal(pm.num_ndr_pins, ndr)
        assert np.array_equal(pm.pin_spacing, spacing)

    def test_local_nets_match_loop(self, placed):
        design, grid, pm = placed
        nets, net_pins = np.zeros((grid.nx, grid.ny), int), np.zeros((grid.nx, grid.ny), int)
        for net in design.nets:
            cells = {grid.cell_of_point(p.position) for p in net.pins}
            if len(cells) == 1:
                key = next(iter(cells))
                nets[key] += 1
                net_pins[key] += net.degree
        assert nets.sum() > 0
        assert np.array_equal(pm.num_local_nets, nets)
        assert np.array_equal(pm.num_local_net_pins, net_pins)

    def test_net_without_pins_is_not_local(self, setup):
        design, grid, g = setup
        a = design.add_cell("a", 40, 120)
        a.position = Point(10, 10)
        design.add_net("empty")
        net = design.add_net("n")
        net.connect(a.add_pin("p", Point(1, 1)))
        net.connect(a.add_pin("q", Point(2, 2)))
        design.add_net("empty_last")
        pm = PlacementMaps(design, grid)
        assert pm.num_local_nets[0, 0] == 1
        assert pm.num_local_nets.sum() == 1
        assert pm.num_local_net_pins[0, 0] == 2
