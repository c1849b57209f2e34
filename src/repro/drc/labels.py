"""Label extraction: DRC report → per-sample binary labels.

A sample is positive iff its *central* g-cell is a DRC hotspot, i.e. the
g-cell overlaps at least one DRC-error bounding box (paper Sec. II-A).
Labels are returned in the grid's raster order, matching the feature
extractor's sample order.
"""

from __future__ import annotations

import numpy as np

from ..layout.grid import GCellGrid, cell_of_row
from .checker import DRCReport


def hotspot_labels(report: DRCReport, grid: GCellGrid) -> np.ndarray:
    """Binary label vector (int8) over all g-cells in raster order."""
    return grid.raster(report.hotspot_mask(grid)).astype(np.int8)


def hotspot_cells(report: DRCReport, grid: GCellGrid) -> list[tuple[int, int]]:
    """Grid indices of all hotspot g-cells, raster order."""
    rows = np.flatnonzero(grid.raster(report.hotspot_mask(grid)))
    return [cell_of_row(int(row), grid.nx, grid.ny) for row in rows]
