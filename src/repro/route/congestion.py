"""Congestion-map views: per-window-edge lookups and text rendering.

The feature extractor needs, for every sample window, the capacity and load
of each of the 12 window edges *on each metal layer* and of each of the 9
window cells *on each via layer*.  This module maps window-relative edges
(:data:`repro.layout.grid.WINDOW_EDGES`) onto the global arrays of a loaded
:class:`~repro.route.graph.RoutingGrid`.

Conventions:

* A window edge of orientation ``H`` (vertical boundary) only carries wires
  on *horizontal* metal layers; on vertical layers its capacity and load are
  reported as 0 (and vice versa).  The paper extracts all 12 edges on all
  five layers — 180 congestion-edge features — so the direction-mismatched
  ones are legitimately all-zero, which RF tolerates by design (Sec. III-A).
* Edges or cells padded outside the die report (0, 0).

Also provided: :func:`render_layer_congestion`, an ASCII rendition of a
layer's edge congestion around a g-cell — our stand-in for the colored
congestion plots of Fig. 3.
"""

from __future__ import annotations

import numpy as np

from ..layout.grid import GCellGrid, WindowEdge
from .graph import RoutingGrid


def window_edge_cap_load(
    rgrid: RoutingGrid,
    center: tuple[int, int],
    edge: WindowEdge,
    metal_index: int,
) -> tuple[float, float]:
    """(capacity, load) of a window edge on one metal layer.

    Returns (0, 0) for direction-mismatched layers and padded edges.
    """
    layer = rgrid.tech.metal(metal_index)
    layer_dir = "H" if layer.is_horizontal else "V"
    if layer_dir != edge.orientation:
        return (0.0, 0.0)

    ix, iy = center
    grid = rgrid.grid
    ax, ay = ix + edge.cell_a[0], iy + edge.cell_a[1]
    bx, by = ix + edge.cell_b[0], iy + edge.cell_b[1]
    if not (grid.in_bounds(ax, ay) and grid.in_bounds(bx, by)):
        return (0.0, 0.0)

    if edge.orientation == "H":  # horizontal wires, edge between (ax,ay)-(ax+1,ay)
        e = (min(ax, bx), ay)
    else:  # vertical wires, edge between (ax,ay)-(ax,ay+1)
        e = (ax, min(ay, by))
    return (float(rgrid.metal_cap[metal_index][e]), float(rgrid.metal_load[metal_index][e]))


def window_cell_via_cap_load(
    rgrid: RoutingGrid,
    center: tuple[int, int],
    offset: tuple[int, int],
    via_index: int,
) -> tuple[float, float]:
    """(capacity, load) of the via layer in one window cell; (0,0) if padded."""
    ix, iy = center[0] + offset[0], center[1] + offset[1]
    if not rgrid.grid.in_bounds(ix, iy):
        return (0.0, 0.0)
    return (
        float(rgrid.via_cap[via_index][ix, iy]),
        float(rgrid.via_load[via_index][ix, iy]),
    )


def utilization_map(rgrid: RoutingGrid, metal_index: int) -> np.ndarray:
    """Per-edge utilisation (load/cap, inf where cap==0 and load>0)."""
    cap = rgrid.metal_cap[metal_index].astype(float)
    load = rgrid.metal_load[metal_index]
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(
            cap > 0, load / np.maximum(cap, 1e-12), np.where(load > 0, np.inf, 0.0)
        )
    return util


_LEVELS = " .:-=+*#%@"  # low → high utilisation


def _util_char(util: float) -> str:
    if not np.isfinite(util):
        return "X"
    idx = min(int(util * (len(_LEVELS) - 1)), len(_LEVELS) - 1)
    return _LEVELS[max(idx, 0)]


def render_layer_congestion(
    rgrid: RoutingGrid,
    metal_index: int,
    center: tuple[int, int],
    radius: int = 2,
) -> str:
    """ASCII congestion picture of one layer around a g-cell (Fig. 3 analog).

    G-cells are drawn as ``[ ]`` boxes; the character between boxes encodes
    the utilisation of the edge separating them (``@`` ≈ full, ``X`` =
    blocked-but-used).  Only edges of the layer's routing direction exist.
    """
    grid: GCellGrid = rgrid.grid
    util = utilization_map(rgrid, metal_index)
    layer = rgrid.tech.metal(metal_index)
    cx, cy = center
    lines = [f"{layer.name} edge congestion around g-cell ({cx},{cy})"]
    for iy in range(cy + radius, cy - radius - 1, -1):  # top row first
        row_cells = []
        row_edges = []
        for ix in range(cx - radius, cx + radius + 1):
            mark = "o" if (ix, iy) == (cx, cy) else " "
            row_cells.append(f"[{mark}]" if grid.in_bounds(ix, iy) else "   ")
            if layer.is_horizontal and grid.in_bounds(ix, iy) and grid.in_bounds(ix + 1, iy):
                row_cells.append(_util_char(float(util[ix, iy])))
            elif ix < cx + radius:
                row_cells.append(" ")
            if not layer.is_horizontal and grid.in_bounds(ix, iy) and grid.in_bounds(ix, iy - 1):
                row_edges.append(f" {_util_char(float(util[ix, iy - 1]))}  ")
            else:
                row_edges.append("    ")
        lines.append("".join(row_cells))
        if iy > cy - radius and not layer.is_horizontal:
            lines.append("".join(row_edges))
        elif iy > cy - radius:
            lines.append("")
    return "\n".join(lines)
