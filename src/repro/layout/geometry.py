"""Planar geometry primitives used throughout the layout substrate.

All coordinates are in abstract *database units* (DBU).  The technology layer
(:mod:`repro.layout.technology`) decides how many DBU make one micron; the
rest of the code never needs to know.

The two workhorse types are :class:`Point` and :class:`Rect`.  Both are
immutable so they can be freely shared, hashed and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane, in database units."""

    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other``.

        This is the routing-relevant metric: wires run on horizontal and
        vertical tracks, so wirelength estimates use L1 throughout.
        """
        return abs(self.x - other.x) + abs(self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle, closed on all sides.

    Invariant: ``xlo <= xhi`` and ``ylo <= yhi``.  Degenerate (zero-area)
    rectangles are allowed; they arise naturally as bounding boxes of single
    points and of purely horizontal/vertical wire segments.
    """

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise ValueError(
                f"malformed Rect: ({self.xlo}, {self.ylo}, {self.xhi}, {self.yhi})"
            )

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        """Bounding box of a non-empty iterable of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("Rect.bounding() requires at least one rectangle")
        xlo, ylo, xhi, yhi = first.xlo, first.ylo, first.xhi, first.yhi
        for r in it:
            xlo = min(xlo, r.xlo)
            ylo = min(ylo, r.ylo)
            xhi = max(xhi, r.xhi)
            yhi = max(yhi, r.yhi)
        return Rect(xlo, ylo, xhi, yhi)

    # -- basic measures -------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    # -- predicates ------------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary."""
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies fully inside (or on the boundary of) self."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and other.xhi <= self.xhi
            and other.yhi <= self.yhi
        )

    def overlaps(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point.

        Touching edges count as overlap — this matches the paper's hotspot
        rule, where a g-cell is a hotspot iff it *overlaps* a DRC-error
        bounding box.
        """
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    # -- combinators -----------------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """The shared region, or ``None`` if the rectangles are disjoint."""
        if not self.overlaps(other):
            return None
        return Rect(
            max(self.xlo, other.xlo),
            max(self.ylo, other.ylo),
            min(self.xhi, other.xhi),
            min(self.yhi, other.yhi),
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the shared region (0.0 when disjoint or merely touching)."""
        inter = self.intersection(other)
        return inter.area if inter is not None else 0.0

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side (shrunk if negative)."""
        return Rect(
            self.xlo - margin, self.ylo - margin, self.xhi + margin, self.yhi + margin
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xlo, self.ylo, self.xhi, self.yhi)


def mean_pairwise_manhattan(points: list[Point]) -> float:
    """Arithmetic mean of pair-wise Manhattan distances.

    This is the paper's *pin spacing* feature.  Defined as 0.0 for fewer than
    two points (a g-cell with zero or one pin has no spacing to speak of).

    Computed in O(n log n) per axis using the sorted prefix-sum identity
    ``sum_{i<j} |x_i - x_j| = sum_k x_(k) * (2k - n + 1)`` on sorted values,
    which matters because it runs once per g-cell over the entire layout.
    """
    n = len(points)
    if n < 2:
        return 0.0

    def _axis_sum(values: list[float]) -> float:
        values = sorted(values)
        total = 0.0
        for k, v in enumerate(values):
            total += v * (2 * k - n + 1)
        return total

    pair_count = n * (n - 1) / 2.0
    total = _axis_sum([p.x for p in points]) + _axis_sum([p.y for p in points])
    return total / pair_count
