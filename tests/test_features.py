"""Tests for feature naming and the 387-feature extractor."""

import numpy as np
import pytest

from repro.features.names import (
    NUM_FEATURES,
    describe_feature,
    feature_index,
    feature_names,
)
from repro.layout.grid import WINDOW_EDGES, WINDOW_OFFSETS, cell_of_row, row_of_cell
from repro.route.congestion import (
    window_cell_via_cap_load,
    window_edge_cap_load,
)


class TestNames:
    def test_exactly_387(self):
        names = feature_names()
        assert len(names) == NUM_FEATURES == 387

    def test_unique(self):
        names = feature_names()
        assert len(set(names)) == len(names)

    def test_block_sizes(self):
        names = feature_names()
        placement = [n for n in names if not n[0] in "ev" or "_" not in n]
        edges = [n for n in names if n.startswith(("ec", "el", "ed"))]
        vias = [n for n in names if n.startswith(("vc", "vl", "vd"))]
        assert len(edges) == 180  # 12 edges x 5 layers x 3 kinds
        assert len(vias) == 108  # 9 cells x 4 layers x 3 kinds
        assert len(names) - len(edges) - len(vias) == 99

    def test_paper_examples_exist(self):
        idx = feature_index()
        # the paper's Fig. 4 features, translated to our convention
        assert "edM4_4V" in idx  # same name as the paper
        assert "edM5_7H" in idx
        assert "vlV2_o" in idx  # paper's v1V2_o (via load, centre cell)
        assert "vlV3_NE" in idx

    def test_index_roundtrip(self):
        names = feature_names()
        idx = feature_index()
        for i in (0, 50, 150, 386):
            assert idx[names[i]] == i

    def test_describe(self):
        assert "margin" in describe_feature("edM4_4V")
        assert "load" in describe_feature("vlV2_N")
        assert "pin spacing" in describe_feature("pinspace_o")
        with pytest.raises(KeyError):
            describe_feature("bogus_x")


class TestExtractor:
    def test_shape_and_finite(self, small_flow):
        assert small_flow.X.shape == (small_flow.grid.num_cells, 387)
        assert np.isfinite(small_flow.X).all()

    def test_raster_order_matches_grid(self, small_flow):
        """Row k of X describes g-cell cell_of_row(k, nx, ny)."""
        X = small_flow.X
        grid = small_flow.grid
        idx = feature_index()
        for flat in (0, 7, grid.num_cells - 1):
            ix, iy = cell_of_row(flat, grid.nx, grid.ny)
            x_norm, y_norm = grid.normalized_center(ix, iy)
            assert X[flat, idx["x_o"]] == pytest.approx(x_norm)
            assert X[flat, idx["y_o"]] == pytest.approx(y_norm)

    def test_placement_features_match_placemaps(self, small_flow):
        X = small_flow.X
        grid = small_flow.grid
        pm = small_flow.placemaps
        idx = feature_index()
        for cell in [(2, 2), (5, 7), (0, 0)]:
            row = row_of_cell(*cell, grid.nx, grid.ny)
            assert X[row, idx["pins_o"]] == pm.num_pins[cell]
            assert X[row, idx["cells_o"]] == pm.num_cells[cell]
            assert X[row, idx["lnets_o"]] == pm.num_local_nets[cell]
            assert X[row, idx["blkg_o"]] == pytest.approx(pm.blockage_frac[cell])

    def test_neighbor_shift_correct(self, small_flow):
        """pins_E of cell (x,y) equals pins_o of cell (x+1,y)."""
        X = small_flow.X
        grid = small_flow.grid
        idx = feature_index()
        for cell in [(2, 2), (4, 5)]:
            row = row_of_cell(*cell, grid.nx, grid.ny)
            east = row_of_cell(cell[0] + 1, cell[1], grid.nx, grid.ny)
            assert X[row, idx["pins_E"]] == X[east, idx["pins_o"]]
            north = row_of_cell(cell[0], cell[1] + 1, grid.nx, grid.ny)
            assert X[row, idx["cells_N"]] == X[north, idx["cells_o"]]

    def test_boundary_padding_zero(self, small_flow):
        """Window cells off-die contribute zero counts."""
        X = small_flow.X
        grid = small_flow.grid
        idx = feature_index()
        corner = row_of_cell(0, 0, grid.nx, grid.ny)
        for stem in ("cells", "pins", "lnets", "vlV1", "vcV1"):
            for pos in ("SW", "S", "W"):
                assert X[corner, idx[f"{stem}_{pos}"]] == 0.0

    def test_congestion_features_match_direct_lookup(self, small_flow):
        X = small_flow.X
        grid = small_flow.grid
        rgrid = small_flow.routing.rgrid
        idx = feature_index()
        cell = (4, 4)
        row = row_of_cell(*cell, grid.nx, grid.ny)
        for edge in WINDOW_EDGES:
            for m in (2, 3, 4, 5):
                cap, load = window_edge_cap_load(rgrid, cell, edge, m)
                assert X[row, idx[f"ecM{m}_{edge.label}"]] == pytest.approx(cap)
                assert X[row, idx[f"elM{m}_{edge.label}"]] == pytest.approx(load)
                assert X[row, idx[f"edM{m}_{edge.label}"]] == pytest.approx(cap - load)

    def test_via_features_match_direct_lookup(self, small_flow):
        X = small_flow.X
        grid = small_flow.grid
        rgrid = small_flow.routing.rgrid
        idx = feature_index()
        cell = (5, 5)
        row = row_of_cell(*cell, grid.nx, grid.ny)
        for pos, off in WINDOW_OFFSETS.items():
            for v in (1, 2, 3, 4):
                cap, load = window_cell_via_cap_load(rgrid, cell, off, v)
                assert X[row, idx[f"vcV{v}_{pos}"]] == pytest.approx(cap)
                assert X[row, idx[f"vlV{v}_{pos}"]] == pytest.approx(load)
                assert X[row, idx[f"vdV{v}_{pos}"]] == pytest.approx(cap - load)

    def test_direction_mismatched_edges_zero(self, small_flow):
        """V-oriented edges carry no M3/M5 (horizontal) congestion."""
        X = small_flow.X
        idx = feature_index()
        v_edges = [e for e in WINDOW_EDGES if e.orientation == "V"]
        for e in v_edges:
            assert (X[:, idx[f"ecM3_{e.label}"]] == 0).all()
            assert (X[:, idx[f"elM5_{e.label}"]] == 0).all()

    def test_m1_congestion_zero(self, small_flow):
        """M1 is not used by GR: its features are structurally zero."""
        X = small_flow.X
        idx = feature_index()
        h_edges = [e for e in WINDOW_EDGES if e.orientation == "H"]
        for e in h_edges:
            assert (X[:, idx[f"elM1_{e.label}"]] == 0).all()
