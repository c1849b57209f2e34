"""Tests for the routing grid and the negotiated-congestion global router."""

import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.layout.grid import GCellGrid
from repro.place import place_design
from repro.route.graph import RoutingGrid
from repro.route.router import GlobalRouter, RouterConfig, route_design


@pytest.fixture(scope="module")
def routed():
    recipe = DesignRecipe(
        name="routeme", grid_nx=10, grid_ny=10, utilization=0.6,
        num_macros=1, macro_area_frac=0.08, ndr_frac=0.1, seed=17,
    )
    d = generate_design(recipe)
    place_design(d)
    grid = GCellGrid.for_design_die(d.die, d.technology)
    return d, grid, route_design(d, grid)


class TestRoutingGrid:
    def test_requires_placement(self):
        d = generate_design(DesignRecipe(name="unplaced", grid_nx=8, grid_ny=8))
        with pytest.raises(ValueError):
            GlobalRouter(d)

    def test_capacity_shapes(self, routed):
        d, grid, rr = routed
        rg = rr.rgrid
        for m in (1, 3, 5):  # horizontal layers
            assert rg.metal_cap[m].shape == (grid.nx - 1, grid.ny)
        for m in (2, 4):  # vertical layers
            assert rg.metal_cap[m].shape == (grid.nx, grid.ny - 1)
        for v in (1, 2, 3, 4):
            assert rg.via_cap[v].shape == (grid.nx, grid.ny)

    def test_m1_not_used_by_gr(self, routed):
        _, _, rr = routed
        assert (rr.rgrid.metal_cap[1] == 0).all()
        assert (rr.rgrid.metal_load[1] == 0).all()

    def test_macro_blocks_lower_layers(self, routed):
        d, grid, rr = routed
        macro = d.macros[0]
        # some M2/M3 edges under the macro must be capacity-0
        assert (rr.rgrid.metal_cap[2] == 0).any()
        assert (rr.rgrid.metal_cap[3] == 0).any()
        # the top layer keeps capacity everywhere
        assert (rr.rgrid.metal_cap[5] > 0).all()

    def test_add_remove_load_roundtrip(self, routed):
        d, grid, _ = routed
        rg = RoutingGrid(d, grid)
        path = [(0, 0), (1, 0), (1, 1), (2, 1)]
        rg.add_path_load(path, 2.0)
        assert rg.load2d_h[0, 0] == 2.0
        assert rg.load2d_v[1, 0] == 2.0
        assert rg.load2d_h[1, 1] == 2.0
        rg.remove_path_load(path, 2.0)
        assert rg.load2d_h.sum() == 0.0
        assert rg.load2d_v.sum() == 0.0

    def test_diagonal_path_rejected(self, routed):
        d, grid, _ = routed
        rg = RoutingGrid(d, grid)
        with pytest.raises(ValueError):
            rg.add_path_load([(0, 0), (1, 1)], 1.0)

    def test_history_bumps_only_overflowed(self, routed):
        d, grid, _ = routed
        rg = RoutingGrid(d, grid)
        rg.load2d_h[0, 0] = rg.cap2d_h[0, 0] + 1
        rg.bump_history(2.0)
        assert rg.hist_h[0, 0] == 2.0
        assert rg.hist_h[1, 0] == 0.0


class TestGlobalRouter:
    def test_all_segments_routed_and_connected(self, routed):
        _, _, rr = routed
        assert rr.segments
        for seg in rr.segments:
            assert seg.path[0] == seg.a
            assert seg.path[-1] == seg.b
            for p, q in zip(seg.path, seg.path[1:]):
                assert abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1

    def test_2d_load_equals_wirelength_demand(self, routed):
        _, _, rr = routed
        expected = sum(
            (len(seg.path) - 1) * seg.demand for seg in rr.segments
        )
        total = rr.rgrid.load2d_h.sum() + rr.rgrid.load2d_v.sum()
        assert total == pytest.approx(expected)

    def test_layer_loads_match_2d_loads(self, routed):
        _, _, rr = routed
        rg = rr.rgrid
        h_layers = sum(rg.metal_load[m] for m in rg.h_layers)
        v_layers = sum(rg.metal_load[m] for m in rg.v_layers)
        assert h_layers.sum() == pytest.approx(rg.load2d_h.sum())
        assert v_layers.sum() == pytest.approx(rg.load2d_v.sum())

    def test_layer_direction_respected(self, routed):
        _, _, rr = routed
        rg = rr.rgrid
        # loads only exist on arrays of matching shape by construction;
        # check no negative loads anywhere
        for m, load in rg.metal_load.items():
            assert (load >= 0).all(), f"negative load on M{m}"
        for v, load in rg.via_load.items():
            assert (load >= 0).all(), f"negative load on V{v}"

    def test_ndr_demand_counted(self, routed):
        _, _, rr = routed
        ndr_segs = [s for s in rr.segments if s.demand > 1.0]
        assert ndr_segs, "recipe has ndr_frac=0.1; expected NDR segments"
        assert all(s.demand == 2.0 for s in ndr_segs)

    def test_via_loads_include_pin_access(self, routed):
        d, grid, rr = routed
        # every connected pin contributes one V1 via
        n_pins = sum(1 for p in d.all_pins() if p.net is not None)
        assert rr.rgrid.via_load[1].sum() >= n_pins

    def test_negotiation_reduces_overflow(self):
        recipe = DesignRecipe(
            name="hotroute", grid_nx=10, grid_ny=10, utilization=0.72,
            dense_net_boost=2.2, dense_cluster_frac=0.35, seed=23,
        )
        d = generate_design(recipe)
        place_design(d)
        grid = GCellGrid.for_design_die(d.die, d.technology)
        rr = route_design(d, grid, RouterConfig(negotiation_iterations=5))
        if rr.overflow_history[0] > 0:
            assert rr.overflow_history[-1] <= rr.overflow_history[0]

    def test_deterministic(self):
        recipe = DesignRecipe(name="det", grid_nx=8, grid_ny=8, seed=3)
        results = []
        for _ in range(2):
            d = generate_design(recipe)
            place_design(d)
            grid = GCellGrid.for_design_die(d.die, d.technology)
            rr = route_design(d, grid)
            results.append((rr.total_wirelength, rr.rgrid.load2d_h.sum()))
        assert results[0] == results[1]

    def test_runtime_recorded(self, routed):
        _, _, rr = routed
        assert rr.runtime_sec > 0
