"""Tests for the g-cell grid, windows, the 12-edge convention and the
rasterizer (rectangles and arrays onto g-cells)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generator import DesignRecipe, generate_design
from repro.features.dataset import DesignDataset
from repro.features.names import NUM_FEATURES
from repro.layout.geometry import Point, Rect
from repro.layout.grid import (
    GCellGrid,
    WINDOW_EDGES,
    WINDOW_OFFSETS,
    WINDOW_POSITIONS,
    cell_of_row,
    row_of_cell,
)
from repro.layout.technology import make_ispd2015_like_technology
from repro.route.graph import RoutingGrid


def _cells(grid):
    return [cell_of_row(row, grid.nx, grid.ny) for row in range(grid.num_cells)]


@pytest.fixture()
def grid() -> GCellGrid:
    tech = make_ispd2015_like_technology()
    die = Rect(0, 0, 8 * tech.gcell_size, 5 * tech.gcell_size)
    return GCellGrid.for_design_die(die, tech)


class TestIndexing:
    def test_dimensions(self, grid):
        assert (grid.nx, grid.ny) == (8, 5)
        assert grid.num_cells == 40

    def test_cell_of_point_corners(self, grid):
        assert grid.cell_of_point(Point(0, 0)) == (0, 0)
        # the far corner clamps into the last cell
        assert grid.cell_of_point(Point(grid.die.xhi, grid.die.yhi)) == (7, 4)

    def test_cell_of_point_clamps_outside(self, grid):
        assert grid.cell_of_point(Point(-100, -100)) == (0, 0)
        assert grid.cell_of_point(Point(1e9, 1e9)) == (7, 4)

    def test_cell_bbox_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.cell_bbox(8, 0)

    def test_center_inside_bbox(self, grid):
        for ix, iy in _cells(grid):
            assert grid.cell_bbox(ix, iy).contains_point(grid.cell_center(ix, iy))

    def test_normalized_center_range(self, grid):
        for ix, iy in _cells(grid):
            x, y = grid.normalized_center(ix, iy)
            assert 0.0 < x < 1.0
            assert 0.0 < y < 1.0

    @given(st.integers(0, 7), st.integers(0, 4))
    def test_flat_index_roundtrip(self, ix, iy):
        assert cell_of_row(row_of_cell(ix, iy, 8, 5), 8, 5) == (ix, iy)

    def test_iter_cells_matches_flat_order(self, grid):
        """Rows run through the g-cells iy-major: all of row iy=0 first."""
        assert _cells(grid) == [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)]

    def test_point_roundtrip(self, grid):
        for ix, iy in _cells(grid):
            assert grid.cell_of_point(grid.cell_center(ix, iy)) == (ix, iy)


class TestWindow:
    def test_positions_count_and_center(self):
        assert len(WINDOW_POSITIONS) == 9
        assert "o" in WINDOW_POSITIONS
        assert WINDOW_OFFSETS["o"] == (0, 0)
        assert WINDOW_OFFSETS["NE"] == (1, 1)
        assert WINDOW_OFFSETS["SW"] == (-1, -1)

    def test_twelve_edges_six_per_orientation(self):
        assert len(WINDOW_EDGES) == 12
        assert sum(1 for e in WINDOW_EDGES if e.orientation == "H") == 6
        assert sum(1 for e in WINDOW_EDGES if e.orientation == "V") == 6

    def test_edge_labels_unique_numbered(self):
        labels = [e.label for e in WINDOW_EDGES]
        assert len(set(labels)) == 12
        numbers = sorted(int(l[:-1]) for l in labels)
        assert numbers == list(range(1, 13))

    def test_edge_cells_are_adjacent(self):
        for e in WINDOW_EDGES:
            dx = e.cell_b[0] - e.cell_a[0]
            dy = e.cell_b[1] - e.cell_a[1]
            if e.orientation == "H":
                assert (dx, dy) == (1, 0)
            else:
                assert (dx, dy) == (0, 1)

    def test_edge_cells_inside_window(self):
        for e in WINDOW_EDGES:
            for cell in (e.cell_a, e.cell_b):
                assert -1 <= cell[0] <= 1
                assert -1 <= cell[1] <= 1



# -- reference loops: the per-g-cell rules the vectorised rasterizer replaces --


def _area_fraction_loop(grid, rects):
    frac = np.zeros((grid.nx, grid.ny))
    inv_area = 1.0 / (grid.size * grid.size)
    for rect in rects:
        lo = grid.cell_of_point(Point(rect.xlo, rect.ylo))
        hi = grid.cell_of_point(Point(rect.xhi - 1e-9, rect.yhi - 1e-9))
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                frac[ix, iy] += grid.cell_bbox(ix, iy).overlap_area(rect) * inv_area
    return frac


def _overlap_mask_loop(grid, rects):
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    for rect in rects:
        lo = grid.cell_of_point(Point(rect.xlo, rect.ylo))
        hi = grid.cell_of_point(Point(rect.xhi, rect.yhi))
        for ix in range(max(lo[0] - 1, 0), min(hi[0] + 2, grid.nx)):
            for iy in range(max(lo[1] - 1, 0), min(hi[1] + 2, grid.ny)):
                if grid.cell_bbox(ix, iy).overlaps(rect):
                    mask[ix, iy] = True
    return mask


def _edge_blocked_loop(g, rect, horizontal_edges):
    if horizontal_edges:
        mask = np.zeros((g.nx - 1, g.ny), dtype=bool)
        for ix in range(g.nx - 1):
            x = g.die.xlo + (ix + 1) * g.size
            for iy in range(g.ny):
                y = g.die.ylo + (iy + 0.5) * g.size
                mask[ix, iy] = rect.xlo <= x <= rect.xhi and rect.ylo <= y <= rect.yhi
        return mask
    mask = np.zeros((g.nx, g.ny - 1), dtype=bool)
    for ix in range(g.nx):
        x = g.die.xlo + (ix + 0.5) * g.size
        for iy in range(g.ny - 1):
            y = g.die.ylo + (iy + 1) * g.size
            mask[ix, iy] = rect.xlo <= x <= rect.xhi and rect.ylo <= y <= rect.yhi
    return mask


def _centre_blocked_loop(grid, rects):
    blocked = np.zeros((grid.nx, grid.ny), dtype=bool)
    for rect in rects:
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                if rect.contains_point(grid.cell_center(ix, iy)):
                    blocked[ix, iy] = True
    return blocked


_TECH = make_ispd2015_like_technology()
_GRID = GCellGrid(
    Rect(0, 0, 8 * _TECH.gcell_size, 5 * _TECH.gcell_size), _TECH.gcell_size, 8, 5
)


def _coordinate(origin, n):
    """Any coordinate, with g-cell boundaries, their ±1-ulp neighbours and
    points past the die drawn often."""
    boundary = st.integers(-1, n + 1).map(lambda k: origin + k * _GRID.size)
    return st.one_of(
        boundary,
        boundary.map(lambda c: math.nextafter(c, math.inf)),
        boundary.map(lambda c: math.nextafter(c, -math.inf)),
        st.floats(origin - _GRID.size, origin + (n + 1) * _GRID.size),
    )


@st.composite
def _rect(draw):
    """A rectangle, possibly zero-width or zero-height, possibly past the die."""
    xs = sorted(draw(st.lists(_coordinate(_GRID.die.xlo, _GRID.nx), min_size=1, max_size=2)))
    ys = sorted(draw(st.lists(_coordinate(_GRID.die.ylo, _GRID.ny), min_size=1, max_size=2)))
    return Rect(xs[0], ys[0], xs[-1], ys[-1])


_RECTS = st.lists(_rect(), max_size=6)


@st.composite
def _small_rect(draw):
    """A cell-sized rectangle: within two g-cells either way, possibly past the die."""
    x = draw(_coordinate(_GRID.die.xlo, _GRID.nx))
    y = draw(_coordinate(_GRID.die.ylo, _GRID.ny))
    w = draw(st.floats(0.0, 2 * _GRID.size))
    h = draw(st.floats(0.0, 2 * _GRID.size))
    return Rect(x, y, x + w, y + h)


@st.composite
def _die_among_small(draw):
    """Many small rectangles with one die-sized rectangle somewhere among them."""
    rects = draw(st.lists(_small_rect(), min_size=1, max_size=40))
    rects.insert(draw(st.integers(0, len(rects))), _GRID.die)
    return rects


class TestRasterizer:
    @given(st.lists(st.tuples(_coordinate(_GRID.die.xlo, _GRID.nx),
                              _coordinate(_GRID.die.ylo, _GRID.ny)), max_size=20))
    @settings(max_examples=300)
    def test_cells_of_points_matches_cell_of_point(self, points):
        """Boundaries, their ulp neighbours, the die edge and both clamps."""
        xs = np.array([x for x, _ in points], dtype=np.float64)
        ys = np.array([y for _, y in points], dtype=np.float64)
        ix, iy = _GRID.cells_of_points(xs, ys)
        assert list(zip(ix.tolist(), iy.tolist())) == [
            _GRID.cell_of_point(Point(x, y)) for x, y in points
        ]

    def test_cells_of_points_edges_and_clamps(self):
        g = _GRID
        xs = np.array([g.die.xlo, g.die.xhi, g.die.xlo + g.size, -1e9, 1e9,
                       math.nextafter(g.die.xlo + g.size, -math.inf)])
        ys = np.array([g.die.ylo, g.die.yhi, g.die.ylo + g.size, -1e9, 1e9,
                       math.nextafter(g.die.ylo + g.size, -math.inf)])
        ix, iy = g.cells_of_points(xs, ys)
        assert list(zip(ix.tolist(), iy.tolist())) == [
            (0, 0), (g.nx - 1, g.ny - 1), (1, 1), (0, 0), (g.nx - 1, g.ny - 1), (0, 0)
        ]

    @given(st.one_of(_RECTS, _die_among_small()))
    @settings(max_examples=300)
    def test_area_fraction_matches_loop(self, rects):
        assert np.array_equal(_GRID.area_fraction(rects), _area_fraction_loop(_GRID, rects))

    @given(_RECTS)
    @settings(max_examples=300)
    def test_overlap_mask_matches_loop(self, rects):
        assert np.array_equal(_GRID.overlap_mask(rects), _overlap_mask_loop(_GRID, rects))

    def test_routing_masks_match_loops_on_macro_design(self):
        design = generate_design(DesignRecipe(
            name="macros", grid_nx=12, grid_ny=10, num_macros=3,
            macro_area_frac=0.15, seed=3,
        ))
        rgrid = RoutingGrid(design, GCellGrid.for_design_die(design.die, design.technology))
        g = rgrid.grid
        tech = design.technology
        seen_blocked = False
        for m in range(1, tech.num_metal_layers + 1):
            horizontal = tech.metal(m).is_horizontal
            rects = design.routing_blockage_rects(m)
            xs, ys = g.edge_midpoints(horizontal)
            expected = np.zeros(rgrid.metal_cap[m].shape, dtype=bool)
            for rect in rects:
                expected |= _edge_blocked_loop(g, rect, horizontal)
            assert np.array_equal(g.points_in_rects(xs, ys, rects), expected)
            assert (rgrid.metal_cap[m][expected] == 0).all()
            seen_blocked |= expected.any()
        xs, ys = g.cell_centers()
        assert all(
            g.cell_center(ix, iy) == Point(xs[ix], ys[iy])
            for ix in range(g.nx) for iy in range(g.ny)
        )
        for v in range(1, tech.num_via_layers + 1):
            rects = design.routing_blockage_rects(v) + design.routing_blockage_rects(v + 1)
            expected = _centre_blocked_loop(g, rects)
            assert np.array_equal(g.points_in_rects(xs, ys, rects), expected)
            assert np.array_equal(rgrid.via_cap[v] == 0, expected)
        assert seen_blocked, "the macro design must block some routing edges"

    @given(st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=40)
    def test_dataset_indexing_inverts_raster(self, nx, ny):
        grid = GCellGrid(Rect(0, 0, nx, ny), 1.0, nx, ny)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        rows_x, rows_y = grid.raster(ix), grid.raster(iy)
        d = DesignDataset(
            "toy", 0, np.zeros((nx * ny, NUM_FEATURES)), np.zeros(nx * ny, dtype=np.int8),
            nx, ny,
        )
        for row in range(nx * ny):
            cell = (int(rows_x[row]), int(rows_y[row]))
            assert d.cell_of_sample(row) == cell
            assert d.sample_index(*cell) == row
