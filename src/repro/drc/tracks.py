"""Track-stress model: how close each g-cell is to detailed-routing failure.

The detailed router has, per g-cell and per metal layer, a finite set of
tracks.  Demand on those tracks comes from

* **through-wires** — the GR load on the edges adjacent to the cell,
* **detour spill** — where GR left an edge overflowed, the detailed router
  must squeeze the excess through the neighbourhood; overflow therefore
  spills stress into the adjacent cells and, attenuated, into *their*
  neighbours (this cross-cell coupling is why the paper's 3×3 window
  features carry signal),
* **pin blockage** — on the lower layers, pin geometry blocks track
  segments, so pin-dense cells lose capacity.

``stress = demand / track_capacity`` per (cell, layer); values near or above
1.0 are where the simulated detailed router starts producing violations.
Via-site utilisation per (cell, via layer) is reported alongside, since via
crowding drives EOL violations (cf. the paper's hotspot (b) validation).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter

from ..layout.placemap import PlacementMaps
from ..route.graph import RoutingGrid

#: fraction of a track blocked per pin, by metal layer index
_PIN_BLOCKAGE_PER_LAYER = {1: 0.20, 2: 0.04}


def _adjacent_edge_stats(
    load: np.ndarray, cap: np.ndarray, horizontal: bool, nx: int, ny: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean adjacent-edge load and total adjacent-edge overflow."""
    through = np.zeros((nx, ny))
    overflow_in = np.zeros((nx, ny))
    over = np.maximum(load - cap, 0.0)
    if horizontal:  # edges (ix, iy): (ix,iy)-(ix+1,iy)
        counts = np.zeros((nx, ny))
        through[:-1, :] += load
        through[1:, :] += load
        counts[:-1, :] += 1
        counts[1:, :] += 1
        through /= np.maximum(counts, 1.0)
        overflow_in[:-1, :] += 0.5 * over
        overflow_in[1:, :] += 0.5 * over
    else:  # edges (ix, iy): (ix,iy)-(ix,iy+1)
        counts = np.zeros((nx, ny))
        through[:, :-1] += load
        through[:, 1:] += load
        counts[:, :-1] += 1
        counts[:, 1:] += 1
        through /= np.maximum(counts, 1.0)
        overflow_in[:, :-1] += 0.5 * over
        overflow_in[:, 1:] += 0.5 * over
    return through, overflow_in


def layer_stress(rgrid: RoutingGrid, placemaps: PlacementMaps) -> dict[int, np.ndarray]:
    """Stress per metal layer: dict metal index → (nx, ny) array."""
    tech = rgrid.tech
    grid = rgrid.grid
    pins = placemaps.num_pins.astype(float)
    stress: dict[int, np.ndarray] = {}
    for m in range(1, tech.num_metal_layers + 1):
        layer = tech.metal(m)
        base_cap = float(tech.edge_capacity(m)) if m in tech.gr_metal_indices else float(
            tech.gcell_size / layer.pitch
        )
        through, overflow_in = _adjacent_edge_stats(
            rgrid.metal_load[m],
            rgrid.metal_cap[m].astype(float),
            layer.is_horizontal,
            grid.nx,
            grid.ny,
        )
        # detours spread one g-cell further out with attenuation
        spill = overflow_in + 0.6 * uniform_filter(overflow_in, size=3, mode="constant")
        demand = through + spill
        demand += _PIN_BLOCKAGE_PER_LAYER.get(m, 0.0) * pins
        # capacity lost to blockages (macros) — stress spikes at macro edges
        derate = grid.area_fraction(rgrid.design.routing_blockage_rects(m))
        cap = base_cap * (1.0 - np.clip(derate, 0.0, 0.95))
        stress[m] = demand / np.maximum(cap, 0.25 * base_cap)
    return stress


def via_utilization(rgrid: RoutingGrid) -> dict[int, np.ndarray]:
    """Utilisation per via layer: dict via index → (nx, ny) array."""
    util: dict[int, np.ndarray] = {}
    for v in range(1, rgrid.tech.num_via_layers + 1):
        cap = rgrid.via_cap[v].astype(float)
        base = float(rgrid.tech.via_capacity(v))
        util[v] = rgrid.via_load[v] / np.maximum(cap, 0.25 * base)
    return util
