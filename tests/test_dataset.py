"""Tests for dataset containers and the suite cache."""

import io

import numpy as np
import pytest

from repro.features.dataset import DesignDataset, SuiteDataset
from repro.features.names import NUM_FEATURES


def _toy_design(name: str, group: int, nx: int = 3, ny: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    n = nx * ny
    return DesignDataset(
        name=name,
        group=group,
        X=rng.normal(size=(n, NUM_FEATURES)),
        y=rng.integers(0, 2, size=n).astype(np.int8),
        grid_nx=nx,
        grid_ny=ny,
    )


class TestDesignDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DesignDataset("bad", 0, np.zeros((4, 10)), np.zeros(4, dtype=np.int8), 2, 2)
        with pytest.raises(ValueError):
            DesignDataset(
                "bad", 0, np.zeros((4, NUM_FEATURES)), np.zeros(5, dtype=np.int8), 2, 2
            )
        with pytest.raises(ValueError):
            DesignDataset(
                "bad", 0, np.zeros((4, NUM_FEATURES)), np.zeros(4, dtype=np.int8), 3, 3
            )

    def test_sample_index_roundtrip(self):
        d = _toy_design("a", 0, nx=4, ny=3)
        for row in range(d.num_samples):
            ix, iy = d.cell_of_sample(row)
            assert d.sample_index(ix, iy) == row

    def test_sample_index_bounds(self):
        d = _toy_design("a", 0)
        for ix, iy in [(10, 0), (-1, 0), (0, -1), (0, d.grid_ny)]:
            with pytest.raises(IndexError):
                d.sample_index(ix, iy)

    def test_cell_of_sample_bounds(self):
        d = _toy_design("a", 0, nx=4, ny=3)
        for row in (-1, d.num_samples):
            with pytest.raises(IndexError):
                d.cell_of_sample(row)


class TestSuiteDataset:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SuiteDataset([_toy_design("a", 0), _toy_design("a", 1)])

    def test_by_name(self):
        suite = SuiteDataset([_toy_design("a", 0), _toy_design("b", 1)])
        assert suite.by_name("b").group == 1
        with pytest.raises(KeyError):
            suite.by_name("zzz")

    def test_stacked_excludes_groups(self):
        suite = SuiteDataset(
            [_toy_design("a", 0, seed=1), _toy_design("b", 1, seed=2), _toy_design("c", 1, seed=3)]
        )
        X, y, groups = suite.stacked(exclude_groups=(1,))
        assert len(X) == suite.by_name("a").num_samples
        assert set(groups) == {0}

    def test_stacked_all_excluded_raises(self):
        suite = SuiteDataset([_toy_design("a", 0)])
        with pytest.raises(ValueError):
            suite.stacked(exclude_groups=(0,))

    def test_save_load_roundtrip(self):
        suite = SuiteDataset(
            [_toy_design("a", 0, seed=5), _toy_design("b", 2, seed=6)]
        )
        archive = io.BytesIO()
        suite.save(archive)
        archive.seek(0)
        with np.load(archive, allow_pickle=False) as arrays:
            loaded = SuiteDataset.from_arrays(arrays)
        assert loaded.names == suite.names
        for orig, back in zip(suite.designs, loaded.designs):
            assert back.group == orig.group
            assert back.grid_nx == orig.grid_nx
            assert np.array_equal(back.y, orig.y)
            assert back.X.dtype == np.float64
            assert np.array_equal(back.X, orig.X)

    def test_num_samples(self):
        suite = SuiteDataset([_toy_design("a", 0), _toy_design("b", 1, nx=5, ny=5)])
        assert suite.num_samples == 6 + 25
