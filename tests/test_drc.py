"""Tests for the DRC checker, the track-stress model and the simulator."""

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.drc.checker import DRCReport, Violation, ViolationType
from repro.drc.detailed import simulate_drc
from repro.drc.labels import hotspot_cells, hotspot_labels
from repro.drc.tracks import layer_stress, via_utilization
from repro.layout.geometry import Rect
from repro.layout.grid import GCellGrid, row_of_cell
from repro.layout.placemap import PlacementMaps
from repro.layout.technology import make_ispd2015_like_technology
from repro.place import place_design
from repro.route import route_design


def _toy_grid():
    tech = make_ispd2015_like_technology()
    g = tech.gcell_size
    die = Rect(0, 0, 4 * g, 4 * g)
    return GCellGrid.for_design_die(die, tech), g


class TestChecker:
    def test_hotspot_rule_single_cell(self):
        grid, g = _toy_grid()
        v = Violation(ViolationType.SHORT, "M3", Rect(10, 10, 20, 20))
        report = DRCReport("toy", [v])
        mask = report.hotspot_mask(grid)
        assert mask[0, 0]
        assert mask.sum() == 1

    def test_hotspot_rule_straddling_box(self):
        grid, g = _toy_grid()
        v = Violation(ViolationType.EOL, "M4", Rect(g - 5, 10, g + 5, 20))
        report = DRCReport("toy", [v])
        mask = report.hotspot_mask(grid)
        assert mask[0, 0] and mask[1, 0]
        assert mask.sum() == 2

    def test_touching_boundary_counts_both(self):
        # paper rule: overlap includes touching
        grid, g = _toy_grid()
        v = Violation(ViolationType.SPACING, "M2", Rect(g, 10, g + 8, 20))
        mask = DRCReport("toy", [v]).hotspot_mask(grid)
        assert mask[0, 0] and mask[1, 0]

    def test_counts_by_type_and_layer(self):
        grid, g = _toy_grid()
        vs = [
            Violation(ViolationType.SHORT, "M3", Rect(0, 0, 5, 5)),
            Violation(ViolationType.SHORT, "M4", Rect(0, 0, 5, 5)),
            Violation(ViolationType.EOL, "M3", Rect(0, 0, 5, 5)),
        ]
        report = DRCReport("toy", vs)
        assert report.counts_by_type()[ViolationType.SHORT] == 2
        assert report.counts_by_layer()["M3"] == 2

    def test_describe_cell(self):
        grid, g = _toy_grid()
        v = Violation(ViolationType.SHORT, "M3", Rect(10, 10, 20, 20))
        report = DRCReport("toy", [v])
        text = report.describe_cell(grid, (0, 0))
        assert "short" in text and "M3" in text
        assert "no DRC errors" in report.describe_cell(grid, (3, 3))

    def test_labels_match_mask(self, small_flow):
        report = small_flow.drc_report
        grid = small_flow.grid
        labels = hotspot_labels(report, grid)
        mask = report.hotspot_mask(grid)
        assert labels.sum() == mask.sum()
        for ix, iy in hotspot_cells(report, grid):
            assert mask[ix, iy]
            assert labels[row_of_cell(ix, iy, grid.nx, grid.ny)] == 1


class TestStressModel:
    def test_shapes_and_nonneg(self, small_flow):
        stress = layer_stress(small_flow.routing.rgrid, small_flow.placemaps)
        vu = via_utilization(small_flow.routing.rgrid)
        shape = (small_flow.grid.nx, small_flow.grid.ny)
        for m in range(1, 6):
            assert stress[m].shape == shape
            assert (stress[m] >= 0).all()
        for v in range(1, 5):
            assert vu[v].shape == shape
            assert (vu[v] >= 0).all()

    def test_stress_tracks_congestion(self, small_flow):
        """Cells next to heavily loaded edges have higher stress."""
        stress = layer_stress(small_flow.routing.rgrid, small_flow.placemaps)
        rg = small_flow.routing.rgrid
        m = 3  # a horizontal GR layer
        load = rg.metal_load[m]
        if load.max() == 0:
            pytest.skip("design routed with zero M3 load")
        hot_edge = np.unravel_index(np.argmax(load), load.shape)
        cell = (hot_edge[0], hot_edge[1])
        assert stress[m][cell] > np.median(stress[m])


class TestSimulator:
    def test_deterministic_per_design_name(self, small_flow):
        r1 = simulate_drc(
            small_flow.design, small_flow.routing.rgrid, small_flow.placemaps
        )
        r2 = simulate_drc(
            small_flow.design, small_flow.routing.rgrid, small_flow.placemaps
        )
        assert r1.num_violations == r2.num_violations
        assert [v.bbox.as_tuple() for v in r1.violations] == [
            v.bbox.as_tuple() for v in r2.violations
        ]

    def test_boxes_inside_die(self, small_flow):
        for v in small_flow.drc_report.violations:
            assert small_flow.grid.die.contains_rect(v.bbox)

    def test_violation_layers_are_gr_layers(self, small_flow):
        layers = set(small_flow.drc_report.counts_by_layer())
        assert layers <= {"M2", "M3", "M4", "M5"}

    def test_congested_design_has_more_hotspots(self):
        def run(util, boost, name):
            recipe = DesignRecipe(
                name=name, grid_nx=10, grid_ny=10, utilization=util,
                dense_net_boost=boost, dense_cluster_frac=0.3, seed=31,
            )
            d = generate_design(recipe)
            place_design(d)
            grid = GCellGrid.for_design_die(d.die, d.technology)
            rr = route_design(d, grid)
            pm = PlacementMaps(d, grid)
            return simulate_drc(d, rr.rgrid, pm).num_hotspots(grid)

        cold = run(0.4, 1.1, "cold_mono")
        hot = run(0.72, 2.2, "hot_mono")
        assert hot > cold
