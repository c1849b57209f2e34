"""Vectorised extraction of the 387 features for every g-cell of a design.

One sample per g-cell, in the grid's raster order.  Each feature column is
computed as a single shifted-array lookup over the whole grid, so extraction
is O(#features × #g-cells) in numpy rather than a nested Python loop.

Padding follows the paper's footnote 2: window cells outside the die are
*blank* — zero counts, zero congestion.  For the two coordinate features we
still emit the would-be normalised coordinate of the padded cell (it can
fall slightly outside [0, 1]); this keeps the coordinate features smooth at
the die boundary.
"""

from __future__ import annotations

import numpy as np

from ..layout.grid import (
    GCellGrid,
    WINDOW_EDGES,
    WINDOW_OFFSETS,
    WINDOW_POSITIONS,
)
from ..layout.placemap import PlacementMaps
from ..route.graph import RoutingGrid
from .names import (
    CONGESTION_KINDS,
    FEATURE_METAL_LAYERS,
    FEATURE_VIA_LAYERS,
    NUM_FEATURES,
    PLACEMENT_STEMS,
)


def _shifted_lookup(
    arr: np.ndarray, dx: int, dy: int, out_shape: tuple[int, int]
) -> np.ndarray:
    """``out[ix, iy] = arr[ix+dx, iy+dy]`` with zero padding out of range.

    ``arr`` may have a different shape than ``out_shape`` (edge arrays are
    one short along their axis); indices outside ``arr`` yield 0.
    """
    nx, ny = out_shape
    ax, ay = arr.shape
    out = np.zeros(out_shape, dtype=np.float64)
    # destination range whose source indices are valid
    x0 = max(0, -dx)
    x1 = min(nx, ax - dx)
    y0 = max(0, -dy)
    y1 = min(ny, ay - dy)
    if x0 < x1 and y0 < y1:
        out[x0:x1, y0:y1] = arr[x0 + dx : x1 + dx, y0 + dy : y1 + dy]
    return out


def extract_features(
    grid: GCellGrid, rgrid: RoutingGrid, placemaps: PlacementMaps
) -> np.ndarray:
    """The (num_gcells, 387) feature matrix, columns in :func:`~repro.features.names.feature_names` order."""
    columns: list[np.ndarray] = []
    columns.extend(_placement_columns(grid, placemaps))
    columns.extend(_edge_congestion_columns(grid, rgrid))
    columns.extend(_via_congestion_columns(grid, rgrid))
    X = np.column_stack(columns)
    if X.shape != (grid.num_cells, NUM_FEATURES):
        raise AssertionError(
            f"feature matrix shape {X.shape} != ({grid.num_cells}, {NUM_FEATURES})"
        )
    return X


# -- placement block ---------------------------------------------------------------


def _placement_stat_arrays(grid: GCellGrid, pm: PlacementMaps) -> dict[str, np.ndarray]:
    # normalised centre coordinates of every in-die g-cell
    xs = (np.arange(grid.nx) + 0.5) / grid.nx
    ys = (np.arange(grid.ny) + 0.5) / grid.ny
    return {
        "x": np.repeat(xs[:, None], grid.ny, axis=1),
        "y": np.repeat(ys[None, :], grid.nx, axis=0),
        "cells": pm.num_cells.astype(np.float64),
        "pins": pm.num_pins.astype(np.float64),
        "clkpins": pm.num_clock_pins.astype(np.float64),
        "lnets": pm.num_local_nets.astype(np.float64),
        "lpins": pm.num_local_net_pins.astype(np.float64),
        "ndrpins": pm.num_ndr_pins.astype(np.float64),
        "pinspace": pm.pin_spacing,
        "blkg": pm.blockage_frac,
        "cellarea": pm.cell_area_frac,
    }


def _placement_columns(grid: GCellGrid, placemaps: PlacementMaps) -> list[np.ndarray]:
    shape = (grid.nx, grid.ny)
    stats = _placement_stat_arrays(grid, placemaps)
    cols: list[np.ndarray] = []
    for pos in WINDOW_POSITIONS:
        dx, dy = WINDOW_OFFSETS[pos]
        for stem in PLACEMENT_STEMS:
            if stem == "x":
                # would-be coordinate of the window cell (may pad off-die)
                xs = (np.arange(grid.nx) + dx + 0.5) / grid.nx
                col = np.repeat(xs[:, None], grid.ny, axis=1)
            elif stem == "y":
                ys = (np.arange(grid.ny) + dy + 0.5) / grid.ny
                col = np.repeat(ys[None, :], grid.nx, axis=0)
            else:
                col = _shifted_lookup(stats[stem], dx, dy, shape)
            cols.append(grid.raster(col))
    return cols


# -- congestion blocks --------------------------------------------------------------


def _edge_congestion_columns(grid: GCellGrid, rgrid: RoutingGrid) -> list[np.ndarray]:
    shape = (grid.nx, grid.ny)
    zeros = np.zeros(grid.num_cells)
    cols: list[np.ndarray] = []
    for m in FEATURE_METAL_LAYERS:
        layer = rgrid.tech.metal(m)
        layer_dir = "H" if layer.is_horizontal else "V"
        cap_arr = rgrid.metal_cap[m].astype(np.float64)
        load_arr = rgrid.metal_load[m]
        for edge in WINDOW_EDGES:
            if edge.orientation != layer_dir:
                # direction mismatch: no tracks of this layer cross the
                # edge; all three features are structurally zero
                for _ in CONGESTION_KINDS:
                    cols.append(zeros)
                continue
            # edge arrays are indexed by their lower/left cell, cell_a
            dx, dy = edge.cell_a
            cap = _shifted_lookup(cap_arr, dx, dy, shape)
            load = _shifted_lookup(load_arr, dx, dy, shape)
            cols.append(grid.raster(cap))
            cols.append(grid.raster(load))
            cols.append(grid.raster(cap - load))
    return cols


def _via_congestion_columns(grid: GCellGrid, rgrid: RoutingGrid) -> list[np.ndarray]:
    shape = (grid.nx, grid.ny)
    cols: list[np.ndarray] = []
    for v in FEATURE_VIA_LAYERS:
        cap_arr = rgrid.via_cap[v].astype(np.float64)
        load_arr = rgrid.via_load[v]
        for pos in WINDOW_POSITIONS:
            dx, dy = WINDOW_OFFSETS[pos]
            cap = _shifted_lookup(cap_arr, dx, dy, shape)
            load = _shifted_lookup(load_arr, dx, dy, shape)
            cols.append(grid.raster(cap))
            cols.append(grid.raster(load))
            cols.append(grid.raster(cap - load))
    return cols
