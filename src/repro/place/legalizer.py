"""Tetris-style row legalisation.

Takes the (possibly overlapping) global-placement result and snaps every
cell onto a placement row and site grid such that:

* no two cells overlap,
* no cell overlaps a macro,
* every cell stays inside the die,
* total displacement from the global-placement position is kept small.

The algorithm is the classic Tetris/abacus-lite greedy: cells are processed
in order of their desired x coordinate; each cell tries a window of rows
around its desired row and takes the feasible spot with the smallest
displacement cost.  Rows are split into free *segments* between macros,
each with a fill cursor that only moves rightward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..layout.geometry import Point, Rect
from ..layout.netlist import Design


@dataclass
class _Segment:
    """A free interval of one placement row."""

    xlo: float
    xhi: float
    cursor: float = field(init=False)

    def __post_init__(self) -> None:
        self.cursor = self.xlo

    def free_width(self) -> float:
        return self.xhi - self.cursor

    def try_place(
        self, desired_x: float, width: float, max_gap: float
    ) -> float | None:
        """Feasible x for a cell of ``width`` near ``desired_x``, else None.

        The cursor discipline means cells already placed in this segment
        occupy [xlo, cursor); a new cell may go anywhere in [cursor, xhi-w].
        Because cells are processed in increasing desired x, any gap left
        behind the cursor is lost forever — so the gap is capped at
        ``max_gap`` to keep the packing near-optimal at high utilisation.
        """
        if self.free_width() < width:
            return None
        x = min(max(desired_x, self.cursor), self.xhi - width)
        x = min(x, self.cursor + max_gap)
        return x

    def commit(self, x: float, width: float) -> None:
        if x < self.cursor - 1e-9 or x + width > self.xhi + 1e-9:
            raise ValueError("segment commit outside free range")
        self.cursor = x + width


@dataclass
class _Row:
    y: float
    segments: list[_Segment]


def _build_rows(design: Design) -> list[_Row]:
    tech = design.technology
    die = design.die
    blockages = design.placement_blockage_rects()
    rows: list[_Row] = []
    y = die.ylo
    while y + tech.row_height <= die.yhi + 1e-9:
        row_rect = Rect(die.xlo, y, die.xhi, y + tech.row_height)
        # carve the row into free segments around blockages
        cuts: list[tuple[float, float]] = []
        for b in blockages:
            inter = row_rect.intersection(b)
            if inter is not None and inter.width > 0:
                cuts.append((inter.xlo, inter.xhi))
        cuts.sort()
        segments: list[_Segment] = []
        x = die.xlo
        for cxlo, cxhi in cuts:
            if cxlo > x:
                segments.append(_Segment(x, cxlo))
            x = max(x, cxhi)
        if x < die.xhi:
            segments.append(_Segment(x, die.xhi))
        rows.append(_Row(y=y, segments=segments))
        y += tech.row_height
    return rows


class LegalizationError(RuntimeError):
    """Raised when a cell cannot be placed anywhere (utilisation too high)."""


def legalize(design: Design) -> float:
    """Legalise every cell in place; returns total displacement.

    Cells must already have (global-placement) positions; the macros are
    the obstacles.
    """
    tech = design.technology
    rows = _build_rows(design)
    if not rows:
        raise LegalizationError("die shorter than one row")

    for cell in design.cells:
        if cell.position is None:
            raise ValueError(f"cell {cell.name} not globally placed")
    cells = sorted(design.cells, key=lambda c: c.position.x)  # type: ignore[union-attr]

    total_disp = 0.0
    n_rows = len(rows)
    max_gap = 1.0 * tech.site_width
    for cell in cells:
        desired = cell.position
        assert desired is not None
        desired_row = int(round((desired.y - design.die.ylo) / tech.row_height))
        desired_row = min(max(desired_row, 0), n_rows - 1)

        placed = False
        # widening row search: 0, ±1, ±2, ... until a feasible spot is found
        for radius in range(n_rows):
            candidates = {desired_row - radius, desired_row + radius}
            best: tuple[float, _Segment, float, float] | None = None
            for r in candidates:
                if not 0 <= r < n_rows:
                    continue
                row = rows[r]
                for seg in row.segments:
                    x = seg.try_place(desired.x, cell.width, max_gap)
                    if x is None:
                        continue
                    cost = abs(x - desired.x) + abs(row.y - desired.y)
                    if best is None or cost < best[0]:
                        best = (cost, seg, x, row.y)
            if best is not None:
                cost, seg, x, row_y = best
                x = _snap_to_site(x, seg, cell.width, tech.site_width, design.die.xlo)
                seg.commit(x, cell.width)
                cell.position = Point(x, row_y)
                total_disp += cost
                placed = True
                break
        if not placed:
            raise LegalizationError(
                f"no legal position for cell {cell.name} "
                f"(width {cell.width}); utilisation too high"
            )
    return total_disp


def _snap_to_site(
    x: float, seg: _Segment, width: float, site: float, origin: float
) -> float:
    """Snap x onto the site grid without leaving the segment's free range."""
    snapped = origin + round((x - origin) / site) * site
    if snapped < seg.cursor:
        snapped += site
    if snapped + width > seg.xhi:
        snapped -= site
    if snapped < seg.cursor - 1e-9 or snapped + width > seg.xhi + 1e-9:
        # site grid too coarse for this gap; fall back to the unsnapped spot
        return x
    return snapped
