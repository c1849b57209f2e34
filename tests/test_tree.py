"""Tests for the binned CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.tree import LEAF, DecisionTreeClassifier
from tests.conftest import make_separable


class TestFitting:
    def test_perfectly_separable_axis(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        t = DecisionTreeClassifier(max_features=None, random_state=0).fit(X, y)
        assert (t.predict(X) == y).all()
        assert t.tree_.n_leaves == 2

    def test_unpruned_fits_training_data(self):
        X, y = make_separable(n=300, seed=1)
        t = DecisionTreeClassifier(max_features=None, random_state=0).fit(X, y)
        assert (t.predict(X) == y).mean() == 1.0

    def test_max_depth_respected(self):
        X, y = make_separable(n=400, seed=2)
        t = DecisionTreeClassifier(max_depth=3, max_features=None, random_state=0).fit(X, y)
        assert t.tree_.max_depth() <= 3

    def test_min_samples_leaf(self):
        X, y = make_separable(n=400, seed=3)
        t = DecisionTreeClassifier(
            min_samples_leaf=20, max_features=None, random_state=0
        ).fit(X, y)
        leaves = t.tree_.children_left == LEAF
        assert (t.tree_.cover[leaves] >= 20 - 1e-9).all()

    def test_pure_node_stops(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        t = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert t.tree_.node_count == 1
        assert t.tree_.value[0] == 1.0

    def test_deterministic_given_seed(self):
        X, y = make_separable(n=300, seed=4)
        t1 = DecisionTreeClassifier(random_state=42).fit(X, y)
        t2 = DecisionTreeClassifier(random_state=42).fit(X, y)
        assert (t1.tree_.feature == t2.tree_.feature).all()
        assert t1.tree_.threshold[0] == t2.tree_.threshold[0]

    def test_sample_weight_zero_excludes(self):
        """Samples with zero weight must not influence the tree."""
        X, y = make_separable(n=200, seed=5)
        X_noise = np.vstack([X, X + 100])  # far-away junk
        y_noise = np.concatenate([y, 1 - y])
        w = np.concatenate([np.ones(200), np.zeros(200)])
        t_clean = DecisionTreeClassifier(max_features=None, random_state=0).fit(X, y)
        t_weighted = DecisionTreeClassifier(max_features=None, random_state=0).fit(
            X_noise, y_noise, sample_weight=w
        )
        assert (t_clean.predict(X) == t_weighted.predict(X)).all()

    def test_weight_scale_invariance(self):
        """Scaling all weights must not change the tree (normalisation)."""
        X, y = make_separable(n=200, seed=6)
        t1 = DecisionTreeClassifier(max_features=None, random_state=0).fit(
            X, y, sample_weight=np.full(200, 1e-5)
        )
        t2 = DecisionTreeClassifier(max_features=None, random_state=0).fit(
            X, y, sample_weight=np.full(200, 1.0)
        )
        assert (t1.tree_.feature == t2.tree_.feature).all()

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_unknown_max_features_raises(self):
        for max_features in ("log2", 0.6, 5):
            with pytest.raises(ValueError):
                DecisionTreeClassifier(max_features=max_features)


class TestPrediction:
    def test_proba_bounds_and_sum(self):
        X, y = make_separable(n=300, seed=8)
        t = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        p = t.predict_proba(X)
        assert p.shape == (300, 2)
        assert (p >= 0).all() and (p <= 1).all()
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_generalizes_on_separable(self):
        X, y = make_separable(n=800, seed=9)
        Xte, yte = make_separable(n=400, seed=10)
        t = DecisionTreeClassifier(max_depth=6, max_features=None, random_state=0).fit(X, y)
        assert (t.predict(Xte) == yte).mean() > 0.8

    def test_decision_path_lengths(self):
        X, y = make_separable(n=300, seed=11)
        t = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        lengths = t.tree_.decision_path_lengths(X)
        assert (lengths >= 1).all()
        assert (lengths <= 5).all()

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 3)))

    def test_nan_rows_train_and_predict_on_the_same_side(self):
        """Binning puts NaN right of every cut and prediction's ``x < thr``
        is False for NaN, so a tree fitted to purity reproduces its labels."""
        rng = np.random.default_rng(12)
        x = rng.integers(0, 10, size=400).astype(np.float64)
        x[rng.random(400) < 0.2] = np.nan
        X = np.column_stack([x, rng.normal(size=400)])
        y = (np.isnan(x) | (x >= 7)).astype(np.int8)
        t = DecisionTreeClassifier(max_features=None, random_state=0).fit(X, y)
        assert np.array_equal(t.predict_proba(X)[:, 1], y)


class TestTreeArrays:
    def test_structure_consistency(self):
        X, y = make_separable(n=400, seed=12)
        t = DecisionTreeClassifier(random_state=0).fit(X, y).tree_
        for node in range(t.node_count):
            left, right = t.children_left[node], t.children_right[node]
            assert (left == LEAF) == (right == LEAF)
            if left != LEAF:
                assert t.feature[node] >= 0
                assert np.isfinite(t.threshold[node])
                # children partition the parent's cover
                assert t.cover[left] + t.cover[right] == pytest.approx(t.cover[node])
            else:
                assert t.feature[node] == LEAF

    def test_root_value_is_prevalence(self):
        X, y = make_separable(n=500, pos_rate=0.3, seed=13)
        t = DecisionTreeClassifier(random_state=0).fit(X, y).tree_
        assert t.value[0] == pytest.approx(y.mean())

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_values_are_probabilities(self, seed):
        X, y = make_separable(n=150, seed=seed)
        t = DecisionTreeClassifier(max_depth=4, random_state=seed).fit(X, y).tree_
        assert (t.value >= 0).all() and (t.value <= 1).all()
        assert (t.cover > 0).all()
