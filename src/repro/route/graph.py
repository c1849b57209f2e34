"""The 3-D global-routing grid: per-layer edge capacities and loads.

Global routing abstracts the die as a grid of g-cells.  Wires cross g-cell
boundaries on metal-layer *tracks*; each boundary edge of each layer has a
capacity ``C`` (max wires across) and a load ``L`` (wires already across).
Vias connecting layers consume via sites inside g-cells, counted per via
layer.  These C/L/(C−L) quantities per layer are exactly the congestion
features of the paper (Sec. II-A).

Conventions (used consistently by the router, features and plots):

* a **horizontal edge** ``(ix, iy)`` connects g-cells ``(ix, iy)`` and
  ``(ix+1, iy)`` — it is a *vertical boundary segment* crossed by wires of
  horizontal layers; arrays have shape ``(nx-1, ny)``;
* a **vertical edge** ``(ix, iy)`` connects ``(ix, iy)`` and ``(ix, iy+1)``
  — a *horizontal boundary* crossed by vertical-layer wires; shape
  ``(nx, ny-1)``;
* via arrays have shape ``(nx, ny)``.

The router works on the **2-D aggregated** view (capacity summed over the
layers of each direction) and a later layer-assignment step distributes the
2-D loads over individual layers; this mirrors standard GR practice and is
why the grid keeps both representations.
"""

from __future__ import annotations

import numpy as np

from ..layout.grid import GCellGrid
from ..layout.netlist import Design
from ..layout.technology import Technology

#: Soft-blockage cost: routing across a fully blocked edge is strongly
#: discouraged but kept finite so every net remains routable.
BLOCKED_EDGE_COST = 1.0e6


def edge_cost(load: float, cap: float, hist: float) -> float:
    """Traversal cost of one 2-D edge: the router's only cost formula.

    Cost = 1 (wirelength) + quadratic congestion penalty from 60 %
    utilisation up + 12 per unit of overflow the next wire would cause +
    accumulated history cost; an edge without capacity costs
    :data:`BLOCKED_EDGE_COST`.  Capacities are whole track counts.
    """
    if cap <= 0:
        return BLOCKED_EDGE_COST
    util = load / cap
    if util < 0.6:
        penalty = 0.0
    else:
        d = util - 0.6
        penalty = 4.0 * (d * d) * 10.0
    over = load + 1.0 - cap
    if over < 0.0:
        over = 0.0
    return 1.0 + penalty + 12.0 * over + hist


def _cost_array(load: np.ndarray, cap: np.ndarray, hist: np.ndarray) -> np.ndarray:
    costs = map(edge_cost, load.ravel().tolist(), cap.ravel().tolist(),
                hist.ravel().tolist())
    return np.fromiter(costs, dtype=np.float64, count=load.size).reshape(load.shape)


class RoutingGrid:
    """Capacity/load bookkeeping for one design's global routing."""

    def __init__(self, design: Design, grid: GCellGrid):
        self.design = design
        self.tech: Technology = design.technology
        self.grid = grid
        nx, ny = self.grid.nx, self.grid.ny

        #: metal layers available to GR, split by direction
        self.h_layers = [
            m for m in self.tech.gr_metal_indices if self.tech.metal(m).is_horizontal
        ]
        self.v_layers = [
            m
            for m in self.tech.gr_metal_indices
            if not self.tech.metal(m).is_horizontal
        ]

        # per-layer capacities and loads
        self.metal_cap: dict[int, np.ndarray] = {}
        self.metal_load: dict[int, np.ndarray] = {}
        for m in range(1, self.tech.num_metal_layers + 1):
            layer = self.tech.metal(m)
            shape = (nx - 1, ny) if layer.is_horizontal else (nx, ny - 1)
            base = self.tech.edge_capacity(m) if m in self.tech.gr_metal_indices else 0
            self.metal_cap[m] = np.full(shape, base, dtype=np.int32)
            self.metal_load[m] = np.zeros(shape, dtype=np.float64)

        self.via_cap: dict[int, np.ndarray] = {}
        self.via_load: dict[int, np.ndarray] = {}
        for v in range(1, self.tech.num_via_layers + 1):
            self.via_cap[v] = np.full(
                (nx, ny), self.tech.via_capacity(v), dtype=np.int32
            )
            self.via_load[v] = np.zeros((nx, ny), dtype=np.float64)

        self._apply_blockages()

        # 2-D aggregates over GR layers (what the maze router sees)
        self.cap2d_h = sum(
            (self.metal_cap[m] for m in self.h_layers), np.zeros((nx - 1, ny))
        ).astype(np.float64)
        self.cap2d_v = sum(
            (self.metal_cap[m] for m in self.v_layers), np.zeros((nx, ny - 1))
        ).astype(np.float64)
        self.load2d_h = np.zeros((nx - 1, ny), dtype=np.float64)
        self.load2d_v = np.zeros((nx, ny - 1), dtype=np.float64)
        # negotiated-congestion history costs (grow on persistent overflow)
        self.hist_h = np.zeros((nx - 1, ny), dtype=np.float64)
        self.hist_v = np.zeros((nx, ny - 1), dtype=np.float64)

    # -- blockage handling -------------------------------------------------------

    def _apply_blockages(self) -> None:
        """Zero the capacity of edges and vias under routing blockages.

        An edge is blocked when its boundary segment's midpoint lies inside
        a blockage, a via site when its g-cell's centre does — adequate
        because the generator snaps macros to whole g-cells.
        """
        g = self.grid
        for m in range(1, self.tech.num_metal_layers + 1):
            xs, ys = g.edge_midpoints(self.tech.metal(m).is_horizontal)
            blocked = g.points_in_rects(xs, ys, self.design.routing_blockage_rects(m))
            self.metal_cap[m][blocked] = 0
        # a via layer is blocked where either of its metals is blocked
        xs, ys = g.cell_centers()
        for v in range(1, self.tech.num_via_layers + 1):
            rects = self.design.routing_blockage_rects(v)
            rects += self.design.routing_blockage_rects(v + 1)
            self.via_cap[v][g.points_in_rects(xs, ys, rects)] = 0

    # -- 2-D load bookkeeping -------------------------------------------------------

    def add_path_load(self, path: list[tuple[int, int]], amount: float) -> None:
        """Add ``amount`` of 2-D load along a cell path (4-connected)."""
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ay == by:  # horizontal move
                self.load2d_h[min(ax, bx), ay] += amount
            elif ax == bx:  # vertical move
                self.load2d_v[ax, min(ay, by)] += amount
            else:
                raise ValueError("path not 4-connected")

    def remove_path_load(self, path: list[tuple[int, int]], amount: float) -> None:
        self.add_path_load(path, -amount)

    # -- congestion views ---------------------------------------------------------------

    def overflow2d(self) -> float:
        """Total 2-D overflow (load above capacity), the GR quality metric."""
        over_h = np.maximum(self.load2d_h - self.cap2d_h, 0.0).sum()
        over_v = np.maximum(self.load2d_v - self.cap2d_v, 0.0).sum()
        return float(over_h + over_v)

    def edge_cost_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge traversal costs (:func:`edge_cost`) for the pattern and
        maze routers, as arrays shaped like the 2-D load arrays."""
        return (
            _cost_array(self.load2d_h, self.cap2d_h, self.hist_h),
            _cost_array(self.load2d_v, self.cap2d_v, self.hist_v),
        )

    def refresh_path_costs(
        self, path: list[tuple[int, int]], cost_h: np.ndarray, cost_v: np.ndarray
    ) -> None:
        """Recompute, in place, the costs of the edges a cell path crosses.

        After :meth:`add_path_load` or :meth:`remove_path_load` on ``path``,
        this brings arrays from :meth:`edge_cost_arrays` back to exactly
        what a fresh call would return, at the price of the path's length.
        """
        for (ax, ay), (bx, by) in zip(path, path[1:]):
            if ay == by:
                e = (min(ax, bx), ay)
                cost_h[e] = edge_cost(self.load2d_h.item(e), self.cap2d_h.item(e),
                                      self.hist_h.item(e))
            else:
                e = (ax, min(ay, by))
                cost_v[e] = edge_cost(self.load2d_v.item(e), self.cap2d_v.item(e),
                                      self.hist_v.item(e))

    def bump_history(self, increment: float = 1.0) -> None:
        """Raise history cost on currently overflowed edges (PathFinder)."""
        self.hist_h[self.load2d_h > self.cap2d_h] += increment
        self.hist_v[self.load2d_v > self.cap2d_v] += increment
