"""Detailed-routing simulator: turns track stress into DRC violations.

The paper obtains labels by actually detail-routing every design with
Olympus-SoC and collecting the checker's error boxes.  We cannot run a
commercial router, so this module simulates the *outcome* of detailed
routing with a mechanistic noise model on top of the track-stress maps
(:mod:`repro.drc.tracks`):

* **shorts** appear on a layer where track stress substantially exceeds
  capacity — the router is forced to double-book a track
  (rate ∝ max(stress − 0.95, 0)²);
* **different-net spacing** errors appear already near capacity, earlier
  for cells rich in NDR pins (wide wires eat spacing margin);
* **end-of-line (EOL)** errors on metal ``m`` are driven by via crowding on
  the adjacent via layers (dense via landings break EOL enclosure — exactly
  the mechanism the paper validates for its hotspot (b));
* **pin-access shorts** on M2 appear in cells whose pin count is high and
  whose pins sit close together (small mean pin spacing).

Counts are sampled Poisson per (g-cell, layer, rule) from a deterministic
per-design RNG, so labels are *stochastic but reproducible*, and — like real
DRC data — not a deterministic function of the features.  Each violation
gets a small bounding box; a fraction of boxes straddle a g-cell border, so
hotspot labels can spread to neighbouring cells like real error boxes do.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..layout.geometry import Rect
from ..layout.grid import GCellGrid
from ..layout.netlist import Design
from ..layout.placemap import PlacementMaps
from ..route.graph import RoutingGrid
from .checker import DRCReport, Violation, ViolationType
from .tracks import layer_stress, via_utilization


# Rates of the violation model (tuned to yield Table-I-like spreads).
SHORT_RATE = 1.4
SHORT_THRESHOLD = 1.15
SPACING_RATE = 0.9
SPACING_THRESHOLD = 1.0
EOL_RATE = 0.8
EOL_THRESHOLD = 1.9
PIN_SHORT_RATE = 0.5
PIN_COUNT_THRESHOLD = 26.0
#: probability that an error box straddles into a neighbouring g-cell
STRADDLE_PROB = 0.25
#: box half-size as a fraction of the g-cell size
BOX_FRAC = 0.12


def _design_seed(design_name: str) -> int:
    """Stable RNG seed derived from the design name."""
    digest = hashlib.sha256(design_name.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def simulate_drc(design: Design, rgrid: RoutingGrid, placemaps: PlacementMaps) -> DRCReport:
    """Run the detailed-routing + DRC simulation for one design.

    One generator, seeded from the design name, draws every count and box.
    """
    rng = np.random.default_rng(_design_seed(design.name))
    grid = rgrid.grid
    stress = layer_stress(rgrid, placemaps)
    via_util = via_utilization(rgrid)
    tech = design.technology
    violations: list[Violation] = []

    for m in tech.gr_metal_indices:
        s = stress[m]
        # shorts: forced track double-booking well above capacity
        lam_short = SHORT_RATE * np.maximum(s - SHORT_THRESHOLD, 0.0) ** 2
        violations += _sample(lam_short, ViolationType.SHORT, f"M{m}", grid, rng)
        # spacing: margin erosion near capacity, worse with NDR pins
        ndr_boost = 1.0 + 0.15 * placemaps.num_ndr_pins
        lam_sp = SPACING_RATE * np.maximum(s - SPACING_THRESHOLD, 0.0) * ndr_boost
        violations += _sample(lam_sp, ViolationType.SPACING, f"M{m}", grid, rng)
        # EOL: via crowding on the via layers touching this metal
        vu = np.zeros_like(s)
        if m - 1 >= 1 and m - 1 <= tech.num_via_layers:
            vu = vu + via_util[m - 1]
        if m <= tech.num_via_layers:
            vu = vu + via_util[m]
        lam_eol = EOL_RATE * np.maximum(vu - EOL_THRESHOLD, 0.0)
        violations += _sample(lam_eol, ViolationType.EOL, f"M{m}", grid, rng)

    # pin-access shorts on M2: many pins packed tightly
    pins = placemaps.num_pins.astype(float)
    spacing = placemaps.pin_spacing
    tight = np.where((spacing > 0) & (spacing < 0.35 * grid.size), 1.5, 1.0)
    lam_pin = (
        PIN_SHORT_RATE
        * np.maximum(pins - PIN_COUNT_THRESHOLD, 0.0)
        / PIN_COUNT_THRESHOLD
        * tight
    )
    violations += _sample(lam_pin, ViolationType.SHORT, "M2", grid, rng)

    return DRCReport(design_name=design.name, violations=violations)


# -- sampling --------------------------------------------------------------------------


def _sample(
    lam: np.ndarray,
    vtype: ViolationType,
    layer: str,
    grid: GCellGrid,
    rng: np.random.Generator,
) -> list[Violation]:
    """Poisson-sample violation counts per g-cell and materialise boxes."""
    counts = rng.poisson(np.maximum(lam, 0.0))
    out: list[Violation] = []
    for ix, iy in zip(*np.nonzero(counts)):
        for _ in range(int(counts[ix, iy])):
            out.append(
                Violation(vtype=vtype, layer=layer, bbox=_box(int(ix), int(iy), grid, rng))
            )
    return out


def _box(ix: int, iy: int, grid: GCellGrid, rng: np.random.Generator) -> Rect:
    """A small error box inside the g-cell, sometimes straddling a border."""
    cell = grid.cell_bbox(ix, iy)
    half = BOX_FRAC * grid.size
    cx = float(rng.uniform(cell.xlo + half, cell.xhi - half))
    cy = float(rng.uniform(cell.ylo + half, cell.yhi - half))
    if rng.random() < STRADDLE_PROB:
        # push the box across a random border (clipped to the die)
        direction = int(rng.integers(0, 4))
        shift = 0.8 * grid.size * BOX_FRAC + half
        if direction == 0:
            cx = cell.xhi - half / 2 + shift
        elif direction == 1:
            cx = cell.xlo + half / 2 - shift
        elif direction == 2:
            cy = cell.yhi - half / 2 + shift
        else:
            cy = cell.ylo + half / 2 - shift
    box = Rect(cx - half, cy - half, cx + half, cy + half)
    clipped = box.intersection(grid.die)
    return clipped if clipped is not None else box
