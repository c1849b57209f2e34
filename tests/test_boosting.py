"""Tests for RUSBoost."""

import numpy as np
import pytest

from repro.ml.boosting import RUSBoostClassifier
from repro.ml.metrics import auc_roc, average_precision
from tests.conftest import make_separable


@pytest.fixture(scope="module")
def imbalanced():
    X, y = make_separable(n=1500, pos_rate=0.06, seed=30)
    Xte, yte = make_separable(n=800, pos_rate=0.06, seed=31)
    return X, y, Xte, yte


class TestRUSBoost:
    def test_learns_imbalanced(self, imbalanced):
        X, y, Xte, yte = imbalanced
        m = RUSBoostClassifier(n_estimators=25, max_depth=4, random_state=0).fit(X, y)
        auc = auc_roc(yte, m.decision_function(Xte))
        assert auc > 0.8

    def test_scores_are_granular(self, imbalanced):
        """Ranking scores must not collapse to a constant (A_prc needs order)."""
        X, y, Xte, _ = imbalanced
        m = RUSBoostClassifier(n_estimators=15, max_depth=4, random_state=0).fit(X, y)
        scores = m.decision_function(Xte)
        assert len(np.unique(scores)) > 50

    def test_margin_range(self, imbalanced):
        X, y, Xte, _ = imbalanced
        m = RUSBoostClassifier(n_estimators=10, max_depth=3, random_state=0).fit(X, y)
        s = m.decision_function(Xte)
        assert (s >= -1 - 1e-9).all() and (s <= 1 + 1e-9).all()

    def test_proba_bounds(self, imbalanced):
        X, y, Xte, _ = imbalanced
        m = RUSBoostClassifier(n_estimators=10, max_depth=3, random_state=0).fit(X, y)
        p = m.predict_proba(Xte)
        assert (p >= 0).all() and (p <= 1).all()
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_boosting_improves_over_one_round(self, imbalanced):
        X, y, Xte, yte = imbalanced
        one = RUSBoostClassifier(n_estimators=1, max_depth=3, random_state=0).fit(X, y)
        many = RUSBoostClassifier(n_estimators=30, max_depth=3, random_state=0).fit(X, y)
        ap_one = average_precision(yte, one.decision_function(Xte))
        ap_many = average_precision(yte, many.decision_function(Xte))
        assert ap_many >= ap_one - 0.02

    def test_single_class_raises(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        with pytest.raises(ValueError):
            RUSBoostClassifier().fit(X, np.zeros(50, dtype=int))

    def test_deterministic(self, imbalanced):
        X, y, Xte, _ = imbalanced
        s1 = RUSBoostClassifier(n_estimators=8, random_state=1).fit(X, y).decision_function(Xte)
        s2 = RUSBoostClassifier(n_estimators=8, random_state=1).fit(X, y).decision_function(Xte)
        assert np.array_equal(s1, s2)

    def test_num_parameters(self, imbalanced):
        X, y, _, _ = imbalanced
        m = RUSBoostClassifier(n_estimators=5, max_depth=3, random_state=0).fit(X, y)
        assert m.num_parameters() > len(m.trees)

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            RUSBoostClassifier().decision_function(np.zeros((1, 2)))
