"""DRC violations and reports.

A :class:`Violation` carries the information the paper's flow gets from the
sign-off checker: a rule type, the layer, and the error's **bounding box**.
The paper labels a g-cell a *DRC hotspot* iff it overlaps any violation
bounding box (Sec. II-A); :meth:`DRCReport.hotspot_mask` implements exactly
that rule, including boxes straddling several g-cells.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..layout.geometry import Rect
from ..layout.grid import GCellGrid


class ViolationType(Enum):
    """The violation classes our simulated checker emits.

    These match the types the paper reports in its Fig. 3 validation:
    shorts, (different-net) spacing errors and end-of-line (EOL) spacing
    errors.
    """

    SHORT = "short"
    SPACING = "spacing"
    EOL = "end_of_line"


@dataclass(frozen=True, slots=True)
class Violation:
    """One DRC error as the checker reports it."""

    vtype: ViolationType
    layer: str  # e.g. "M3" or "V2"
    bbox: Rect


@dataclass
class DRCReport:
    """All violations of one design, with g-cell level queries."""

    design_name: str
    violations: list[Violation]

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def counts_by_type(self) -> dict[ViolationType, int]:
        return dict(Counter(v.vtype for v in self.violations))

    def counts_by_layer(self) -> dict[str, int]:
        return dict(Counter(v.layer for v in self.violations))

    def hotspot_mask(self, grid: GCellGrid) -> np.ndarray:
        """Boolean (nx, ny) array: True where the g-cell is a DRC hotspot.

        A g-cell is a hotspot iff it overlaps at least one violation
        bounding box — the paper's labelling rule.
        """
        return grid.overlap_mask(v.bbox for v in self.violations)

    def num_hotspots(self, grid: GCellGrid) -> int:
        return int(self.hotspot_mask(grid).sum())

    def violations_in_cell(self, grid: GCellGrid, cell: tuple[int, int]) -> list[Violation]:
        """Violations whose bounding box overlaps the given g-cell."""
        bbox = grid.cell_bbox(*cell)
        return [v for v in self.violations if bbox.overlaps(v.bbox)]

    def describe_cell(self, grid: GCellGrid, cell: tuple[int, int]) -> str:
        """Fig.-3-style summary of the actual DRC errors at one g-cell."""
        found = self.violations_in_cell(grid, cell)
        if not found:
            return f"g-cell {cell}: no DRC errors"
        by_kind = Counter((v.vtype.value, v.layer) for v in found)
        parts = [f"{n} {kind} in {layer}" for (kind, layer), n in sorted(by_kind.items())]
        return f"g-cell {cell}: " + ", ".join(parts)
