"""Tests for global placement and legalisation."""

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.layout.geometry import Point, Rect
from repro.layout.netlist import Design
from repro.layout.technology import make_ispd2015_like_technology
from repro.place.legalizer import LegalizationError, legalize
from repro.place.placer import (
    SEED,
    _net_membership,
    _spectral_positions,
    place_design,
)


def _check_legal(design):
    """No overlaps, all inside the die, none on blockages, on rows."""
    tech = design.technology
    boxes = [c.bbox for c in design.cells]
    for box in boxes:
        assert design.die.contains_rect(box)
        row = (box.ylo - design.die.ylo) / tech.row_height
        assert abs(row - round(row)) < 1e-6, "cell not on a row"
    for rect in design.placement_blockage_rects():
        for box in boxes:
            assert box.overlap_area(rect) == pytest.approx(0.0, abs=1e-6)
    # O(n log n) overlap sweep per row
    by_row = {}
    for box in boxes:
        by_row.setdefault(round(box.ylo, 3), []).append(box)
    for row_boxes in by_row.values():
        row_boxes.sort(key=lambda b: b.xlo)
        for a, b in zip(row_boxes, row_boxes[1:]):
            assert a.xhi <= b.xlo + 1e-6, "overlap within a row"


class TestPlaceDesign:
    def test_full_place_is_legal(self):
        recipe = DesignRecipe(
            name="pl", grid_nx=12, grid_ny=12, utilization=0.6,
            num_macros=2, macro_area_frac=0.1, seed=9,
        )
        d = generate_design(recipe)
        place_design(d)
        assert d.is_placed
        _check_legal(d)

    def test_high_utilization_still_legal(self):
        recipe = DesignRecipe(name="dense", grid_nx=10, grid_ny=10, utilization=0.8, seed=4)
        d = generate_design(recipe)
        place_design(d)
        _check_legal(d)

    def test_deterministic(self):
        recipe = DesignRecipe(name="det", grid_nx=10, grid_ny=10, seed=3)
        d1 = generate_design(recipe)
        d2 = generate_design(recipe)
        place_design(d1)
        place_design(d2)
        p1 = [c.position.as_tuple() for c in d1.cells]
        p2 = [c.position.as_tuple() for c in d2.cells]
        assert p1 == p2

    def test_placement_improves_wirelength(self):
        recipe = DesignRecipe(name="wl", grid_nx=12, grid_ny=12, seed=5)
        # the spectral start, legalized without the force loop
        d_random = generate_design(recipe)
        nets = _net_membership(d_random)
        pos = _spectral_positions(
            d_random, d_random.num_cells, nets, np.random.default_rng(SEED)
        )
        for cell, (x, y) in zip(d_random.cells, pos):
            cell.position = Point(x - cell.width / 2.0, y - cell.height / 2.0)
        legalize(d_random)
        hpwl_random = d_random.total_hpwl()

        d_placed = generate_design(recipe)
        place_design(d_placed)
        hpwl_placed = d_placed.total_hpwl()
        assert hpwl_placed < 0.8 * hpwl_random

    def test_empty_design_noop(self):
        tech = make_ispd2015_like_technology()
        d = Design(name="empty", technology=tech, die=Rect(0, 0, 2400, 2400))
        place_design(d)  # no cells: should not raise


class TestLegalizer:
    def _one_cell_design(self):
        tech = make_ispd2015_like_technology()
        d = Design(name="lg", technology=tech, die=Rect(0, 0, 2400, 2400))
        return d, tech

    def test_snaps_to_row(self):
        d, tech = self._one_cell_design()
        c = d.add_cell("c", 40, tech.row_height)
        c.position = Point(101.3, 77.7)
        legalize(d)
        assert c.position.y % tech.row_height == pytest.approx(0.0)

    def test_requires_global_positions(self):
        d, tech = self._one_cell_design()
        d.add_cell("c", 40, tech.row_height)
        with pytest.raises(ValueError):
            legalize(d)

    def test_avoids_macro(self):
        d, tech = self._one_cell_design()
        d.add_macro("m", Rect(0, 0, 1200, 1200))
        c = d.add_cell("c", 40, tech.row_height)
        c.position = Point(600, 600)  # dead centre of the macro
        legalize(d)
        assert c.bbox.overlap_area(Rect(0, 0, 1200, 1200)) == pytest.approx(0.0)

    def test_impossible_raises(self):
        d, tech = self._one_cell_design()
        c = d.add_cell("c", 5000, tech.row_height)  # wider than the die
        c.position = Point(0, 0)
        with pytest.raises(LegalizationError):
            legalize(d)

    def test_displacement_reported(self):
        d, tech = self._one_cell_design()
        c = d.add_cell("c", 40, tech.row_height)
        c.position = Point(100, tech.row_height * 2 + 13)
        disp = legalize(d)
        assert disp >= 0.0
        assert disp <= 2 * tech.row_height


class TestSpectralInit:
    def test_clusters_land_near_each_other(self):
        """Cells of the same generated cluster end up spatially close."""
        recipe = DesignRecipe(
            name="spec", grid_nx=14, grid_ny=14, utilization=0.55,
            cluster_locality=0.95, seed=21,
        )
        d = generate_design(recipe)
        place_design(d)
        # 2-pin net length must be far below the random-placement baseline
        lengths = [n.hpwl() for n in d.signal_nets() if n.degree == 2]
        die_span = d.die.width + d.die.height
        assert np.mean(lengths) < 0.2 * die_span
