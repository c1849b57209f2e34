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

from .geometry import Point, mean_pairwise_manhattan
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
        self._collect_local_nets()

    # -- builders ---------------------------------------------------------------

    def _collect_cells(self) -> None:
        """Count each cell fully inside one g-cell toward that g-cell."""
        grid = self.grid
        for cell in self.design.cells:
            bbox = cell.bbox
            lo = grid.cell_of_point(Point(bbox.xlo, bbox.ylo))
            if lo == grid.cell_of_point(Point(bbox.xhi - 1e-9, bbox.yhi - 1e-9)):
                self.num_cells[lo] += 1

    def _collect_pins(self) -> None:
        grid = self.grid
        pins_by_cell: dict[tuple[int, int], list[Point]] = {}
        for pin in self.design.all_pins():
            if pin.net is None:
                continue  # unconnected pins don't route and don't count
            pos = pin.position
            key = grid.cell_of_point(pos)
            self.num_pins[key] += 1
            if pin.is_clock:
                self.num_clock_pins[key] += 1
            if pin.ndr is not None:
                self.num_ndr_pins[key] += 1
            pins_by_cell.setdefault(key, []).append(pos)
        for key, positions in pins_by_cell.items():
            self.pin_spacing[key] = mean_pairwise_manhattan(positions)

    def _collect_local_nets(self) -> None:
        grid = self.grid
        for net in self.design.nets:
            cells = {grid.cell_of_point(p.position) for p in net.pins}
            if len(cells) == 1:
                key = next(iter(cells))
                self.num_local_nets[key] += 1
                self.num_local_net_pins[key] += net.degree
