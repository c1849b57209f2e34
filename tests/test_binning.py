"""Tests for the quantile bin mapper and the shared binned dataset."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.binning import BinMapper, BinnedDataset, as_binned_dataset
from repro.runtime.telemetry import Tracer, activate


def _reference_edges(X, max_bins):
    """The scalar per-column fit the vectorised BinMapper.fit must match."""
    edges = []
    for j in range(X.shape[1]):
        distinct = np.unique(X[:, j])
        if len(distinct) <= 1:
            edges.append(np.empty(0))
        elif len(distinct) <= max_bins:
            edges.append((distinct[:-1] + distinct[1:]) / 2.0)
        else:
            qs = np.linspace(0, 1, max_bins + 1)[1:-1]
            edges.append(np.unique(np.quantile(X[:, j], qs)))
    return edges


def _random_matrix(seed):
    """Columns mixing the mapper's three regimes: constant, exact-bin
    (few distinct values), and quantile-path (continuous)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    return np.column_stack(
        [
            np.full(n, 3.25),
            rng.choice([0.0, 1.0, 2.5, 7.0], size=n),
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),
        ]
    )


class TestBinMapper:
    def test_constant_feature_single_bin(self):
        X = np.full((50, 1), 3.0)
        m = BinMapper().fit(X)
        assert m.num_bins(0) == 1
        assert (m.transform(X) == 0).all()

    def test_few_distinct_values_exact_bins(self):
        X = np.array([[0.0], [1.0], [1.0], [2.0], [2.0], [2.0]])
        m = BinMapper().fit(X)
        assert m.num_bins(0) == 3
        codes = m.transform(X).ravel()
        assert list(codes) == [0, 1, 1, 2, 2, 2]

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 1))
        m = BinMapper().fit(X)
        codes = m.transform(X).ravel()
        order = np.argsort(X.ravel())
        assert (np.diff(codes[order].astype(int)) >= 0).all()

    def test_max_bins_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10_000, 1))
        m = BinMapper(max_bins=16).fit(X)
        assert m.num_bins(0) <= 16
        assert m.transform(X).max() <= 15

    def test_threshold_semantics(self):
        """code <= c  iff  x < threshold_value(f, c)."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 1))
        m = BinMapper(max_bins=8).fit(X)
        codes = m.transform(X).ravel()
        for c in range(m.num_bins(0) - 1):
            t = m.threshold_value(0, c)
            assert ((codes <= c) == (X.ravel() < t)).all()

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((2, 2)))

    def test_bad_max_bins(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=500)

    @given(st.integers(0, 10_000), st.integers(2, 64))
    @settings(max_examples=30)
    def test_transform_within_bin_count(self, seed, max_bins):
        rng = np.random.default_rng(seed)
        X = rng.choice([0.0, 1.0, 2.5, 7.0, 7.5, 100.0], size=(200, 3))
        m = BinMapper(max_bins=max_bins).fit(X)
        codes = m.transform(X)
        for j in range(3):
            assert codes[:, j].max() < m.num_bins(j)

    @given(st.integers(0, 10_000), st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_vectorised_fit_matches_scalar_reference(self, seed, max_bins):
        """The single-sort fit is bit-for-bit the per-column np.unique fit."""
        X = _random_matrix(seed)
        m = BinMapper(max_bins=max_bins).fit(X)
        for got, want in zip(m.edges_, _reference_edges(X, max_bins)):
            assert np.array_equal(got, want)

    @given(st.integers(0, 10_000), st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_vectorised_transform_matches_searchsorted(self, seed, max_bins):
        """Codes are the per-column searchsorted(..., side='right')."""
        X = _random_matrix(seed)
        m = BinMapper(max_bins=max_bins).fit(X)
        codes = m.transform(X)
        for j, cuts in enumerate(m.edges_):
            want = np.searchsorted(cuts, X[:, j], side="right")
            assert np.array_equal(codes[:, j], want.astype(np.uint8))

    @pytest.mark.parametrize("max_bins", [4, 256])
    def test_transform_nan_and_inf_match_searchsorted(self, max_bins):
        """NaN takes the top code, right of every cut, which is where
        prediction's ``x < thr`` sends it; ±inf follow the same rule."""
        rng = np.random.default_rng(7)
        X = np.column_stack([
            rng.choice([0.0, 1.0, 2.0, np.nan], size=120),
            rng.normal(size=120),
            rng.choice([-np.inf, 0.0, 3.0, np.inf], size=120),
        ])
        X[::7, 1] = np.nan
        m = BinMapper(max_bins=max_bins).fit(X)
        assert all(np.isfinite(c).all() for c in m.edges_[:2])
        probe = np.vstack([X, [[np.nan, np.inf, np.nan], [-np.inf, -np.inf, -np.inf]]])
        codes = m.transform(probe)
        for j, cuts in enumerate(m.edges_):
            want = np.searchsorted(cuts, probe[:, j], side="right")
            assert np.array_equal(codes[:, j], want.astype(np.uint8))
            assert (codes[np.isnan(probe[:, j]), j] == len(cuts)).all()
        assert (codes[-1, :2] == 0).all()

    def test_nan_column_edges_come_from_other_values(self):
        X = np.array([[0.0], [1.0], [np.nan], [2.0], [np.nan]])
        assert np.array_equal(BinMapper().fit(X).edges_[0], [0.5, 1.5])
        assert len(BinMapper().fit(np.full((3, 1), np.nan)).edges_[0]) == 0

    @given(st.integers(0, 10_000), st.integers(2, 32))
    @settings(max_examples=30, deadline=None)
    def test_codes_thresholds_round_trip(self, seed, max_bins):
        """For every feature f and cut c: code <= c  ⇔  x < threshold(f, c).

        This is the property that lets a tree trained on codes store
        real-valued thresholds and classify unbinned data unchanged."""
        X = _random_matrix(seed)
        m = BinMapper(max_bins=max_bins).fit(X)
        codes = m.transform(X)
        for j in range(X.shape[1]):
            for c in range(m.num_bins(j) - 1):
                t = m.threshold_value(j, c)
                assert ((codes[:, j] <= c) == (X[:, j] < t)).all()


class TestBinnedDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(5)
        return BinnedDataset.from_matrix(rng.normal(size=(40, 3)), max_bins=8)

    def test_shapes_and_views(self, dataset):
        assert dataset.n_samples == 40
        assert dataset.n_features == 3
        assert dataset.n_bins_max == dataset.mapper.max_num_bins <= 8
        assert dataset.codes_T.flags["C_CONTIGUOUS"]
        assert np.array_equal(dataset.codes_T, dataset.codes.T)
        assert dataset.codes_T is dataset.codes_T  # computed once, cached

    def test_take_shares_mapper_without_rebinning(self, dataset):
        rows = np.array([1, 5, 7, 7])
        sub = dataset.take(rows)
        assert sub.mapper is dataset.mapper
        assert np.array_equal(sub.codes, dataset.codes[rows])

    def test_rejects_unfitted_mapper_and_bad_codes(self, dataset):
        with pytest.raises(ValueError):
            BinnedDataset(BinMapper(), dataset.codes)
        with pytest.raises(ValueError):
            BinnedDataset(dataset.mapper, dataset.codes.astype(np.float64))
        with pytest.raises(ValueError):
            BinnedDataset(dataset.mapper, dataset.codes[:, :2])

    def test_as_binned_dataset_coercions(self, dataset):
        assert as_binned_dataset(dataset, None) is dataset
        X = np.random.default_rng(6).normal(size=(10, 2))
        fresh = BinnedDataset.from_matrix(X, max_bins=4)
        assert fresh.n_samples == 10
        with pytest.raises(TypeError):  # the old (mapper, codes) tuple form
            as_binned_dataset((dataset.mapper, dataset.codes), None)
        with pytest.raises(ValueError):
            as_binned_dataset(None, None)

    def test_binning_telemetry_counts_one_fit(self):
        rng = np.random.default_rng(7)
        tracer = Tracer()
        with activate(tracer):
            ds = BinnedDataset.from_matrix(rng.normal(size=(30, 2)))
            ds.take(np.arange(5))  # row slices never re-bin
        assert tracer.counters["ml.binning.fits"] == 1
        assert tracer.counters["ml.binning.transforms"] == 1
