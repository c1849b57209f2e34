"""Unit and property tests for geometry primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.layout.geometry import Point, Rect, mean_pairwise_manhattan

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_manhattan_simple(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    @given(points, points)
    def test_manhattan_symmetric(self, a, b):
        assert a.manhattan(b) == b.manhattan(a)

    @given(points, points, points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert a.manhattan(c) <= a.manhattan(b) + b.manhattan(c) + 1e-6

    @given(points)
    def test_manhattan_identity(self, a):
        assert a.manhattan(a) == 0.0

    @given(points, points)
    def test_manhattan_dominates_euclidean(self, a, b):
        assert a.manhattan(b) >= math.hypot(a.x - b.x, a.y - b.y) - 1e-6


class TestRect:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_basic_measures(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.center == Point(2, 1)

    def test_contains_point_boundary(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(2, 2))
        assert not r.contains_point(Point(2.001, 1))

    def test_overlap_touching_counts(self):
        # matches the paper's hotspot rule: touching boxes overlap
        assert Rect(0, 0, 1, 1).overlaps(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).overlaps(Rect(1.1, 0, 2, 1))

    def test_intersection(self):
        inter = Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3))
        assert inter == Rect(1, 1, 2, 2)
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_overlap_area(self):
        assert Rect(0, 0, 2, 2).overlap_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).overlap_area(Rect(1, 0, 2, 1)) == 0.0

    def test_bounding(self):
        box = Rect.bounding([Rect(0, 0, 1, 1), Rect(3, -1, 4, 0.5)])
        assert box == Rect(0, -1, 4, 1)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_expanded(self):
        assert Rect(1, 1, 2, 2).expanded(1) == Rect(0, 0, 3, 3)

    @given(st.lists(st.builds(Rect,
                              st.floats(0, 10), st.floats(0, 10),
                              st.floats(10, 20), st.floats(10, 20)),
                    min_size=1, max_size=8))
    def test_bounding_contains_all(self, rects):
        box = Rect.bounding(rects)
        assert all(box.contains_rect(r) for r in rects)

    @given(points, st.floats(0.1, 100), st.floats(0.1, 100))
    def test_centered_rect_contains_center(self, c, w, h):
        r = Rect(c.x - w / 2.0, c.y - h / 2.0, c.x + w / 2.0, c.y + h / 2.0)
        assert r.contains_point(c)


class TestMeanPairwiseManhattan:
    def test_degenerate(self):
        assert mean_pairwise_manhattan([]) == 0.0
        assert mean_pairwise_manhattan([Point(1, 1)]) == 0.0

    def test_two_points(self):
        assert mean_pairwise_manhattan([Point(0, 0), Point(1, 2)]) == 3.0

    def test_three_points(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        # pairs: 1, 1, 2 -> mean 4/3
        assert mean_pairwise_manhattan(pts) == pytest.approx(4.0 / 3.0)

    @given(st.lists(points, min_size=2, max_size=12))
    def test_matches_naive(self, pts):
        naive = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                naive.append(pts[i].manhattan(pts[j]))
        expected = sum(naive) / len(naive)
        got = mean_pairwise_manhattan(pts)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)
