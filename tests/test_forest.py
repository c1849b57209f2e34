"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import auc_roc
from repro.ml.tree import DecisionTreeClassifier
from tests.conftest import make_separable


@pytest.fixture(scope="module")
def data():
    X, y = make_separable(n=900, seed=20)
    Xte, yte = make_separable(n=500, seed=21)
    return X, y, Xte, yte


class TestFit:
    def test_basic_fit_predict(self, data):
        X, y, Xte, yte = data
        rf = RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert len(rf.trees) == 30
        acc = (rf.predict(Xte) == yte).mean()
        assert acc > 0.8

    def test_forest_beats_single_tree_auc(self, data):
        X, y, Xte, yte = data
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        rf = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
        auc_tree = auc_roc(yte, tree.predict_proba(Xte)[:, 1])
        auc_rf = auc_roc(yte, rf.predict_proba(Xte)[:, 1])
        assert auc_rf > auc_tree

    def test_proba_is_tree_average(self, data):
        X, y, Xte, _ = data
        rf = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        manual = np.mean([t.predict_proba_positive(Xte) for t in rf.trees], axis=0)
        assert np.allclose(rf.predict_proba(Xte)[:, 1], manual)

    def test_deterministic(self, data):
        X, y, Xte, _ = data
        p1 = RandomForestClassifier(n_estimators=10, random_state=5).fit(X, y).predict_proba(Xte)
        p2 = RandomForestClassifier(n_estimators=10, random_state=5).fit(X, y).predict_proba(Xte)
        assert np.array_equal(p1, p2)

    def test_seed_matters(self, data):
        X, y, Xte, _ = data
        p1 = RandomForestClassifier(n_estimators=10, random_state=5).fit(X, y).predict_proba(Xte)
        p2 = RandomForestClassifier(n_estimators=10, random_state=6).fit(X, y).predict_proba(Xte)
        assert not np.array_equal(p1, p2)

    def test_max_samples_subsampling(self, data):
        X, y, Xte, yte = data
        rf = RandomForestClassifier(
            n_estimators=20, max_samples=0.3, random_state=0
        ).fit(X, y)
        assert (rf.predict(Xte) == yte).mean() > 0.75

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 3)))


class TestIntrospection:
    def test_trees_property(self, data):
        X, y, _, _ = data
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        trees = rf.trees
        assert len(trees) == 5
        assert all(t.node_count >= 1 for t in trees)

    def test_num_parameters_positive_and_scales(self, data):
        X, y, _, _ = data
        small = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        big = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert 0 < small.num_parameters() < big.num_parameters()
