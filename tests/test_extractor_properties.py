"""Property-based tests for the feature extractor's shift machinery."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.features.extractor import _shifted_lookup
from repro.layout.geometry import Rect
from repro.layout.grid import GCellGrid


def _raster(arr):
    nx, ny = arr.shape
    return GCellGrid(Rect(0, 0, nx, ny), 1.0, nx, ny).raster(arr)


class TestShiftedLookup:
    @given(
        st.integers(2, 9), st.integers(2, 9),
        st.integers(-2, 2), st.integers(-2, 2),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80)
    def test_matches_naive(self, nx, ny, dx, dy, seed):
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(nx, ny))
        out = _shifted_lookup(arr, dx, dy, (nx, ny))
        for ix in range(nx):
            for iy in range(ny):
                sx, sy = ix + dx, iy + dy
                expected = arr[sx, sy] if 0 <= sx < nx and 0 <= sy < ny else 0.0
                assert out[ix, iy] == expected

    @given(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_smaller_source_array(self, dx, dy, seed):
        """Edge arrays are one short along an axis — padding must kick in."""
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(5, 6))  # source smaller than output (6, 6)
        out = _shifted_lookup(arr, dx, dy, (6, 6))
        for ix in range(6):
            for iy in range(6):
                sx, sy = ix + dx, iy + dy
                expected = arr[sx, sy] if 0 <= sx < 5 and 0 <= sy < 6 else 0.0
                assert out[ix, iy] == expected

    def test_zero_shift_identity(self):
        arr = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(_shifted_lookup(arr, 0, 0, (3, 4)), arr)

    def test_shift_off_grid_all_zero(self):
        arr = np.ones((3, 3))
        assert (_shifted_lookup(arr, 5, 0, (3, 3)) == 0).all()


class TestRaster:
    def test_raster_order_is_iy_major(self):
        arr = np.array([[1, 4], [2, 5], [3, 6]])  # arr[ix, iy]
        flat = _raster(arr)
        # raster: iy=0 row first (ix=0..2), then iy=1
        assert flat.tolist() == [1, 2, 3, 4, 5, 6]

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_raster_matches_flat_index(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(nx, ny))
        flat = _raster(arr)
        for ix in range(nx):
            for iy in range(ny):
                assert flat[iy * nx + ix] == arr[ix, iy]
