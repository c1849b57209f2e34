"""White-box tests for placer internals (spectral init, forces, macros)."""

import numpy as np

from repro.layout.geometry import Point, Rect
from repro.layout.grid import GCellGrid
from repro.layout.netlist import Design
from repro.layout.technology import make_ispd2015_like_technology
from repro.place.placer import (
    MACRO_HALO_GCELLS,
    SEED,
    _density_force,
    _incidence_sizes,
    _macro_halos,
    _net_membership,
    _push_out_of_macros,
    _spectral_positions,
    _wirelength_force,
)


def _two_cluster_design() -> Design:
    """Two 8-cell cliques joined by a single net — a clear bipartition."""
    tech = make_ispd2015_like_technology()
    d = Design(name="2clust", technology=tech, die=Rect(0, 0, 2400, 2400))
    cells = [d.add_cell(f"c{i}", 40, tech.row_height) for i in range(16)]
    pins = {c.name: [c.add_pin(f"p{k}", Point(5, 5)) for k in range(6)] for c in cells}
    counters = {c.name: 0 for c in cells}

    def take(cell):
        pin = pins[cell.name][counters[cell.name]]
        counters[cell.name] += 1
        return pin

    nid = 0
    for base in (0, 8):
        group = cells[base : base + 8]
        for i in range(8):
            net = d.add_net(f"n{nid}")
            nid += 1
            net.connect(take(group[i]))
            net.connect(take(group[(i + 1) % 8]))
            net2 = d.add_net(f"n{nid}")
            nid += 1
            net2.connect(take(group[i]))
            net2.connect(take(group[(i + 3) % 8]))
    bridge = d.add_net("bridge")
    bridge.connect(take(cells[0]))
    bridge.connect(take(cells[8]))
    return d


class TestSpectralInit:
    def test_separates_clusters(self):
        d = _two_cluster_design()
        nets = _net_membership(d)
        pos = _spectral_positions(d, len(d.cells), nets, np.random.default_rng(SEED))
        a = pos[:8]
        b = pos[8:]
        # within-cluster spread must be smaller than the cluster separation
        sep = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        spread = max(a.std(axis=0).max(), b.std(axis=0).max())
        assert sep > spread

    def test_tiny_netlist_falls_back(self):
        tech = make_ispd2015_like_technology()
        d = Design(name="tiny", technology=tech, die=Rect(0, 0, 1200, 1200))
        for i in range(4):
            d.add_cell(f"c{i}", 40, tech.row_height).add_pin("p", Point(1, 1))
        nets = _net_membership(d)
        pos = _spectral_positions(d, 4, nets, np.random.default_rng(SEED))
        assert pos.shape == (4, 2)
        assert np.isfinite(pos).all()


class TestForces:
    def test_wirelength_force_pulls_together(self):
        d = _two_cluster_design()
        nets = _net_membership(d)
        rng = np.random.default_rng(0)
        pos = rng.uniform(100, 2300, size=(16, 2))
        hpwl_proxy_before = _net_span(pos, nets)
        for _ in range(30):
            pos += 0.4 * _wirelength_force(pos, nets, _incidence_sizes(nets, 16))
        assert _net_span(pos, nets) < hpwl_proxy_before

    def test_density_force_spreads_overfull_bin(self):
        d = _two_cluster_design()
        grid = GCellGrid.for_design_die(d.die, d.technology)
        # all cells piled into one point -> the bin is over target density
        pos = np.full((16, 2), 1200.0)
        areas = np.array([c.area for c in d.cells])
        force = _density_force(pos, areas, grid, np.random.default_rng(SEED))
        assert np.abs(force).sum() > 0.0

    def test_macro_pushout(self):
        tech = make_ispd2015_like_technology()
        d = Design(name="m", technology=tech, die=Rect(0, 0, 2400, 2400))
        d.add_macro("blk", Rect(960, 960, 1440, 1440))
        d.add_cell("c", 40, tech.row_height).add_pin("p", Point(1, 1))
        pos = np.array([[1200.0, 1200.0]])  # inside the macro
        out = _push_out_of_macros(_macro_halos(d), pos.copy())
        macro = d.macros[0].bbox.expanded(MACRO_HALO_GCELLS * tech.gcell_size)
        x, y = out[0]
        assert not (macro.xlo < x < macro.xhi and macro.ylo < y < macro.yhi)


def _net_span(pos: np.ndarray, nets) -> float:
    cell_ids, net_ids, n_nets = nets
    total = 0.0
    for n in range(n_nets):
        members = cell_ids[net_ids == n]
        p = pos[members]
        total += (p.max(axis=0) - p.min(axis=0)).sum()
    return total
