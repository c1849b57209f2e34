"""Tests for the routing grid and the negotiated-congestion global router."""

import hashlib

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.bench.suite import suite_recipes
from repro.layout.grid import GCellGrid
from repro.place import place_design
from repro.route.graph import BLOCKED_EDGE_COST, RoutingGrid, edge_cost
from repro.route.router import route_design
from repro.runtime.telemetry import Tracer, activate


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
            route_design(d, GCellGrid.for_design_die(d.die, d.technology))

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
        rr = route_design(d, grid)
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


# -- negotiated routing on a congested suite design ---------------------------------


@pytest.fixture(scope="module")
def congested():
    """``mult_b`` at scale 0.35, placed: 17x17 g-cells, 185 units of overflow
    after the pattern pass, two negotiation rounds."""
    (recipe,) = [r for r in suite_recipes(0.35) if r.name == "mult_b"]
    d = generate_design(recipe)
    place_design(d)
    return d, GCellGrid.for_design_die(d.die, d.technology)


def _routing_digest(rr) -> str:
    rg = rr.rgrid
    h = hashlib.sha256()
    for a in (rg.load2d_h, rg.load2d_v):
        h.update(a.tobytes())
    for m in sorted(rg.metal_load):
        h.update(rg.metal_load[m].tobytes())
    for v in sorted(rg.via_load):
        h.update(rg.via_load[v].tobytes())
    for seg in rr.segments:
        h.update(repr(seg.path).encode())
    return h.hexdigest()


def _numpy_edge_costs(load, cap, hist):
    """The whole-array form of the cost formula that ``edge_cost`` replaced."""
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(cap > 0, load / np.maximum(cap, 1e-9), np.inf)
    penalty = np.where(util < 0.6, 0.0, 4.0 * (util - 0.6) ** 2 * 10.0)
    over = np.maximum(load + 1.0 - cap, 0.0)
    c = 1.0 + penalty + 12.0 * over + hist
    return np.where(cap > 0, c, BLOCKED_EDGE_COST)


class TestNegotiatedRouting:
    def test_routed_output_pinned(self, congested):
        """Loads, layer loads, via loads and every segment path, byte for
        byte: any change to the maze search, its tie order or the cost
        arrays it sees moves this digest (and the paper's features)."""
        d, grid = congested
        with activate(Tracer()) as tracer:
            rr = route_design(d, grid)
        assert rr.overflow_history == [185.0, 3.0, 0.0]
        assert tracer.counters["router.maze.routes"] == 270
        assert tracer.counters["router.maze.expansions"] == 16025
        assert _routing_digest(rr) == (
            "c43477dfbf5c59fee9091cd8a031e8516e11a5a8786fe75c92886c5c8cd7a8b0"
        )

    def test_refreshed_costs_equal_fresh_arrays_after_every_victim(
        self, congested, monkeypatch
    ):
        d, grid = congested
        refresh = RoutingGrid.refresh_path_costs
        checked = []

        def checked_refresh(rgrid, path, cost_h, cost_v):
            refresh(rgrid, path, cost_h, cost_v)
            fresh_h, fresh_v = rgrid.edge_cost_arrays()
            assert cost_h.tobytes() == fresh_h.tobytes()
            assert cost_v.tobytes() == fresh_v.tobytes()
            checked.append(len(path))

        monkeypatch.setattr(RoutingGrid, "refresh_path_costs", checked_refresh)
        rr = route_design(d, grid)
        assert len(checked) == 2 * 270  # after each rip-up and each re-route
        rg = rr.rgrid
        assert (rg.hist_h > 0).any() and (rg.hist_v > 0).any()
        cost_h, cost_v = rg.edge_cost_arrays()
        assert cost_h.tobytes() == _numpy_edge_costs(
            rg.load2d_h, rg.cap2d_h, rg.hist_h).tobytes()
        assert cost_v.tobytes() == _numpy_edge_costs(
            rg.load2d_v, rg.cap2d_v, rg.hist_v).tobytes()

    def test_cost_formula_boundaries(self, congested):
        d, grid = congested
        rg = RoutingGrid(d, grid)
        cases = [  # (load, cap, hist)
            (3.0, 5.0, 0.0),   # utilisation exactly 0.6: no penalty yet
            (6.0, 10.0, 1.5),  # 0.6 again, with history
            (4.0, 5.0, 0.0),   # 0.8: penalty, no overflow
            (7.0, 5.0, 3.0),   # load above capacity
            (5.0, 5.0, 0.0),   # the next wire overflows
            (2.0, 0.0, 4.5),   # no capacity: blocked
            (0.0, 0.0, 0.0),
        ]
        for i, (load, cap, hist) in enumerate(cases):
            rg.load2d_h[i, 0], rg.cap2d_h[i, 0], rg.hist_h[i, 0] = load, cap, hist
        cost_h, _ = rg.edge_cost_arrays()
        assert cost_h.tobytes() == _numpy_edge_costs(
            rg.load2d_h, rg.cap2d_h, rg.hist_h).tobytes()
        got = [edge_cost(*c) for c in cases]
        assert got == cost_h[: len(cases), 0].tolist()
        assert got[0] == 1.0 and got[1] == 2.5
        d08, d14, d10 = 0.8 - 0.6, 1.4 - 0.6, 1.0 - 0.6
        assert got[2] == 1.0 + 4.0 * (d08 * d08) * 10.0
        assert got[3] == 1.0 + 4.0 * (d14 * d14) * 10.0 + 12.0 * 3.0 + 3.0
        assert got[4] == 1.0 + 4.0 * (d10 * d10) * 10.0 + 12.0
        assert got[5] == got[6] == BLOCKED_EDGE_COST
