"""Per-g-cell placement statistics.

After placement, both the DRC simulator (mechanism) and the feature
extractor (paper features, Sec. II-A) need the same per-g-cell quantities:

* number of standard cells *fully inside* the g-cell,
* number of pins / clock pins / NDR pins inside,
* number of local nets (all pins in one g-cell) and of pins on local nets,
* mean pair-wise Manhattan pin spacing,
* fraction of area covered by macros and by standard cells.

:class:`PlacementMaps` computes all of them once as dense ``(nx, ny)`` numpy
arrays; both area fractions come from :meth:`GCellGrid.area_fraction`.
"""

from __future__ import annotations

import numpy as np

from .geometry import mean_pairwise_manhattan
from .grid import GCellGrid
from .netlist import Design


class PlacementMaps:
    """Dense per-g-cell statistics of a placed design."""

    def __init__(self, design: Design, grid: GCellGrid):
        if not design.is_placed:
            raise ValueError(f"design {design.name} must be placed")
        self.design = design
        self.grid = grid
        nx, ny = grid.nx, grid.ny

        self.num_cells = np.zeros((nx, ny), dtype=np.int32)
        self.num_pins = np.zeros((nx, ny), dtype=np.int32)
        self.num_clock_pins = np.zeros((nx, ny), dtype=np.int32)
        self.num_ndr_pins = np.zeros((nx, ny), dtype=np.int32)
        self.num_local_nets = np.zeros((nx, ny), dtype=np.int32)
        self.num_local_net_pins = np.zeros((nx, ny), dtype=np.int32)
        self.pin_spacing = np.zeros((nx, ny), dtype=np.float64)
        # area fraction is split across every overlapped g-cell
        self.cell_area_frac = grid.area_fraction(c.bbox for c in design.cells)
        self.blockage_frac = np.clip(
            grid.area_fraction(design.placement_blockage_rects()), 0.0, 1.0
        )

        self._collect_cells()
        self._collect_pins()

    # -- builders ---------------------------------------------------------------

    def _collect_cells(self) -> None:
        """Count each cell fully inside one g-cell toward that g-cell."""
        grid = self.grid
        box = np.array([c.bbox.as_tuple() for c in self.design.cells],
                       dtype=np.float64).reshape(-1, 4)
        x0, y0 = grid.cells_of_points(box[:, 0], box[:, 1])
        x1, y1 = grid.cells_of_points(box[:, 2] - 1e-9, box[:, 3] - 1e-9)
        inside = (x0 == x1) & (y0 == y1)
        np.add.at(self.num_cells, (x0[inside], y0[inside]), 1)

    def _collect_pins(self) -> None:
        """Pin counts and spacing per g-cell, and the local nets.

        Only pins on a net count (unconnected pins don't route), so the
        pins are read net by net: one position array serves the pin maps
        and the local-net test.  The spacing of a g-cell sorts its pins'
        coordinates, so the order they are read in does not matter.
        """
        grid = self.grid
        nets = self.design.nets
        positions = [p.position for net in nets for p in net.pins]
        if not positions:
            return
        xs = np.array([p.x for p in positions])
        ys = np.array([p.y for p in positions])
        ix, iy = grid.cells_of_points(xs, ys)
        degree = np.array([net.degree for net in nets])
        is_clock = np.array([p.is_clock for net in nets for p in net.pins])
        is_ndr = np.repeat([net.ndr is not None for net in nets], degree)

        np.add.at(self.num_pins, (ix, iy), 1)
        np.add.at(self.num_clock_pins, (ix[is_clock], iy[is_clock]), 1)
        np.add.at(self.num_ndr_pins, (ix[is_ndr], iy[is_ndr]), 1)

        flat = ix * grid.ny + iy
        order = np.argsort(flat, kind="stable")
        keys, starts = np.unique(flat[order], return_index=True)
        groups = np.split(order, starts[1:])
        for key, pins in zip(keys.tolist(), groups):
            self.pin_spacing.flat[key] = mean_pairwise_manhattan(
                [positions[i] for i in pins.tolist()]
            )

        # a net is local when all its pins share one g-cell; a net without
        # pins is in none
        first = (np.cumsum(degree) - degree)[degree > 0]
        local = np.minimum.reduceat(flat, first) == np.maximum.reduceat(flat, first)
        key_x, key_y = ix[first[local]], iy[first[local]]
        np.add.at(self.num_local_nets, (key_x, key_y), 1)
        np.add.at(self.num_local_net_pins, (key_x, key_y), degree[degree > 0][local])
