"""The global-routing grid: g-cells, 3×3 windows and window edges.

Global routing divides the die into square *g-cells*.  Every data sample of
the paper corresponds to one g-cell expanded to a **3×3 window** (the central
g-cell plus its 8 compass neighbours); window positions are named after
Fig. 3(d) of the paper::

        NW  N  NE
        W   o  E        (o = the central g-cell)
        SW  S  SE

A 3×3 window contains exactly **12 interior border edges** — 6 horizontal
boundaries crossed by vertical wires (suffix ``V``) and 6 vertical boundaries
crossed by horizontal wires (suffix ``H``).  We number them 1..12 in raster
order of their midpoints (bottom-to-top, then left-to-right); the exact
numbering in the paper's figure is not recoverable from the text, so ours is
the documented convention used consistently by features, explanations and
plots:

.. code-block:: text

        +----+----+----+
        | NW 11H N  12H NE |      row of N-cells, H edges 11, 12
        +-8V-+-9V-+-10V+
        | W  6H  o  7H  E |      center row, H edges 6, 7
        +-3V-+-4V-+-5V-+
        | SW 1H  S  2H  SE |      row of S-cells, H edges 1, 2
        +----+----+----+

Windows centred on boundary g-cells are padded with *blank* g-cells outside
the die (footnote 2 of the paper): blank cells contribute zero counts and
zero-capacity edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import Point, Rect
from .technology import Technology

#: Window position names in Fig. 3(d) order; ``o`` is the central g-cell.
#: The tuple order (raster, SW..NE) is the canonical feature order.
WINDOW_POSITIONS: tuple[str, ...] = ("SW", "S", "SE", "W", "o", "E", "NW", "N", "NE")

#: (dx, dy) grid offset of each window position relative to the centre.
WINDOW_OFFSETS: dict[str, tuple[int, int]] = {
    "SW": (-1, -1),
    "S": (0, -1),
    "SE": (1, -1),
    "W": (-1, 0),
    "o": (0, 0),
    "E": (1, 0),
    "NW": (-1, 1),
    "N": (0, 1),
    "NE": (1, 1),
}


@dataclass(frozen=True, slots=True)
class WindowEdge:
    """One of the 12 interior border edges of a 3×3 window.

    ``label``
        The canonical name, e.g. ``"4V"`` or ``"7H"``.
    ``orientation``
        ``"V"`` — a horizontal boundary crossed by vertical wires;
        ``"H"`` — a vertical boundary crossed by horizontal wires.
    ``cell_a`` / ``cell_b``
        Grid offsets (dx, dy) of the two g-cells the edge separates,
        relative to the window centre.  ``cell_a`` is always the lower/left
        one.
    """

    label: str
    orientation: str
    cell_a: tuple[int, int]
    cell_b: tuple[int, int]


def _build_window_edges() -> tuple[WindowEdge, ...]:
    edges: list[WindowEdge] = []
    number = 1
    # Raster order by edge-midpoint y, then x.  Rows of H edges (inside a
    # cell row) interleave with rows of V edges (between cell rows).
    for dy in (-1, 0, 1):
        # H edges inside the cell row at dy: between (-1,dy)-(0,dy), (0,dy)-(1,dy)
        for dx_a in (-1, 0):
            edges.append(
                WindowEdge(f"{number}H", "H", (dx_a, dy), (dx_a + 1, dy))
            )
            number += 1
        # V edges between cell row dy and dy+1 (skip after the top row)
        if dy < 1:
            for dx in (-1, 0, 1):
                edges.append(
                    WindowEdge(f"{number}V", "V", (dx, dy), (dx, dy + 1))
                )
                number += 1
    return tuple(edges)


#: The 12 interior edges of a 3×3 window, in canonical (numbered) order.
WINDOW_EDGES: tuple[WindowEdge, ...] = _build_window_edges()


def row_of_cell(ix: int, iy: int, nx: int, ny: int) -> int:
    """Sample row of g-cell ``(ix, iy)`` in an ``nx × ny`` grid (raster, iy-major).

    Inverse of :func:`cell_of_row`; the single-g-cell form of
    :meth:`GCellGrid.raster`'s order.
    """
    if not (0 <= ix < nx and 0 <= iy < ny):
        raise IndexError(f"g-cell ({ix}, {iy}) outside {nx}x{ny} grid")
    return iy * nx + ix


def cell_of_row(row: int, nx: int, ny: int) -> tuple[int, int]:
    """G-cell ``(ix, iy)`` of sample row ``row`` in an ``nx × ny`` grid."""
    if not 0 <= row < nx * ny:
        raise IndexError(f"sample row {row} outside {nx}x{ny} grid")
    return (row % nx, row // nx)


@dataclass(frozen=True)
class GCellGrid:
    """A uniform grid of square g-cells covering the die.

    Grid indices are ``(ix, iy)`` with the origin at the lower-left; the cell
    covers ``[xlo + ix*size, xlo + (ix+1)*size)`` horizontally and similarly
    vertically.  The die is assumed to be an integer number of g-cells in
    each dimension (the benchmark generator guarantees this).
    """

    die: Rect
    size: float
    nx: int
    ny: int

    @staticmethod
    def for_design_die(die: Rect, technology: Technology) -> "GCellGrid":
        """Grid for a die using the technology's g-cell size."""
        size = technology.gcell_size
        nx = max(1, round(die.width / size))
        ny = max(1, round(die.height / size))
        return GCellGrid(die=die, size=size, nx=nx, ny=ny)

    # -- index arithmetic -------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.nx and 0 <= iy < self.ny

    def cell_of_point(self, p: Point) -> tuple[int, int]:
        """Grid index of the g-cell containing ``p`` (die-boundary clamped)."""
        ix = int((p.x - self.die.xlo) / self.size)
        iy = int((p.y - self.die.ylo) / self.size)
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    def cells_of_points(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cell_of_point` of every ``(xs[k], ys[k])``, as two index arrays.

        ``astype(np.int64)`` truncates toward zero as ``int()`` does, and
        the clip is the same die-boundary clamp.
        """
        ix = ((np.asarray(xs, dtype=np.float64) - self.die.xlo) / self.size).astype(np.int64)
        iy = ((np.asarray(ys, dtype=np.float64) - self.die.ylo) / self.size).astype(np.int64)
        return np.clip(ix, 0, self.nx - 1), np.clip(iy, 0, self.ny - 1)

    def cell_bbox(self, ix: int, iy: int) -> Rect:
        if not self.in_bounds(ix, iy):
            raise IndexError(f"g-cell ({ix}, {iy}) outside {self.nx}x{self.ny} grid")
        x = self.die.xlo + ix * self.size
        y = self.die.ylo + iy * self.size
        return Rect(x, y, x + self.size, y + self.size)

    def cell_center(self, ix: int, iy: int) -> Point:
        return self.cell_bbox(ix, iy).center

    def normalized_center(self, ix: int, iy: int) -> tuple[float, float]:
        """Centre coordinates normalised to [0, 1] — the paper's x/y features."""
        c = self.cell_center(ix, iy)
        return (
            (c.x - self.die.xlo) / self.die.width,
            (c.y - self.die.ylo) / self.die.height,
        )

    # -- rasterisation ----------------------------------------------------------------

    def raster(self, arr: np.ndarray) -> np.ndarray:
        """Flatten an ``(nx, ny)`` array to sample order (raster, iy-major).

        Row ``k`` of every feature matrix and label vector is the g-cell
        :func:`cell_of_row` ``(k, nx, ny)``; this is the one place that order
        is applied to whole arrays, and that function pair the one place it
        is applied to single g-cells.
        """
        return arr.T.reshape(-1)

    def _lows(self, origin: float, start: int, stop: int) -> np.ndarray:
        """Lower coordinate of g-cells ``start .. stop-1`` along one axis."""
        return origin + np.arange(start, stop) * self.size

    def area_fraction(self, rects: Iterable[Rect]) -> np.ndarray:
        """Summed fraction of each g-cell's area covered by ``rects``.

        Returns an unclipped ``(nx, ny)`` array: overlapping rectangles add
        up, so callers clip to their own bound.  A rectangle is evaluated
        only on the g-cells holding its lower-left corner through its
        upper-right corner pulled in by 1e-9, so an edge snapped to a g-cell
        boundary adds nothing to the cell beyond it, not even an ulp.

        Every (rectangle, g-cell) term is one entry of a flat array, laid
        out rect-major and scatter-added in that order, so each g-cell sums
        its terms in list order; the array holds exactly the covered
        g-cells of each rectangle, never a padded block.
        """
        box = np.array([r.as_tuple() for r in rects], dtype=np.float64).reshape(-1, 4)
        xlo, ylo, xhi, yhi = box.T
        x0, y0 = self.cells_of_points(xlo, ylo)
        x1, y1 = self.cells_of_points(xhi - 1e-9, yhi - 1e-9)
        # a zero-width rectangle on a g-cell boundary ends one cell before it starts
        span_x = np.maximum(x1 - x0 + 1, 0)
        span_y = np.maximum(y1 - y0 + 1, 0)
        terms = span_x * span_y
        rect = np.repeat(np.arange(len(box)), terms)
        # position of each term inside its rectangle's block, x-major
        k = np.arange(len(rect)) - np.repeat(np.cumsum(terms) - terms, terms)
        ix = x0[rect] + k // span_y[rect]
        iy = y0[rect] + k % span_y[rect]
        xs = self.die.xlo + ix * self.size
        ys = self.die.ylo + iy * self.size
        # the closed-rectangle intersection's extent; <= 0 is no overlap
        w = np.maximum(np.minimum(xs + self.size, xhi[rect]) - np.maximum(xs, xlo[rect]), 0.0)
        h = np.maximum(np.minimum(ys + self.size, yhi[rect]) - np.maximum(ys, ylo[rect]), 0.0)
        frac = np.zeros((self.nx, self.ny))
        np.add.at(frac, (ix, iy), w * h * (1.0 / (self.size * self.size)))
        return frac

    def overlap_mask(self, rects: Iterable[Rect]) -> np.ndarray:
        """Boolean ``(nx, ny)``: the g-cell overlaps at least one of ``rects``.

        Rectangles are closed, so a box merely touching a g-cell boundary
        marks the cells on both sides — the paper's hotspot rule.
        """
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        for r in rects:
            lo = self.cell_of_point(Point(r.xlo, r.ylo))
            hi = self.cell_of_point(Point(r.xhi, r.yhi))
            # cell_of_point assigns a boundary to one side: widen by one cell
            x0, x1 = max(lo[0] - 1, 0), min(hi[0] + 2, self.nx)
            y0, y1 = max(lo[1] - 1, 0), min(hi[1] + 2, self.ny)
            xs = self._lows(self.die.xlo, x0, x1)
            ys = self._lows(self.die.ylo, y0, y1)
            in_x = (xs <= r.xhi) & (r.xlo <= xs + self.size)
            in_y = (ys <= r.yhi) & (r.ylo <= ys + self.size)
            mask[x0:x1, y0:y1] |= np.outer(in_x, in_y)
        return mask

    def edge_midpoints(self, horizontal: bool) -> tuple[np.ndarray, np.ndarray]:
        """x and y axes of the midpoints of every routing edge's boundary.

        Horizontal edges (shape ``(nx-1, ny)``) sit on the interior vertical
        boundaries at row mid-heights; vertical edges (``(nx, ny-1)``) on
        the interior horizontal boundaries at column mid-widths.
        """
        if horizontal:
            return (
                self.die.xlo + np.arange(1, self.nx) * self.size,
                self.die.ylo + (np.arange(self.ny) + 0.5) * self.size,
            )
        return (
            self.die.xlo + (np.arange(self.nx) + 0.5) * self.size,
            self.die.ylo + np.arange(1, self.ny) * self.size,
        )

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y axes of every g-cell's centre, as :meth:`cell_center` computes it."""
        xs = self._lows(self.die.xlo, 0, self.nx)
        ys = self._lows(self.die.ylo, 0, self.ny)
        return (xs + (xs + self.size)) / 2.0, (ys + (ys + self.size)) / 2.0

    @staticmethod
    def points_in_rects(
        xs: np.ndarray, ys: np.ndarray, rects: Iterable[Rect]
    ) -> np.ndarray:
        """Boolean ``(len(xs), len(ys))``: point ``(xs[i], ys[j])`` lies in a closed rectangle."""
        mask = np.zeros((len(xs), len(ys)), dtype=bool)
        for r in rects:
            mask |= np.outer((r.xlo <= xs) & (xs <= r.xhi), (r.ylo <= ys) & (ys <= r.yhi))
        return mask
