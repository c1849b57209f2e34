"""Tests for the numpy MLP."""

import hashlib

import numpy as np
import pytest

from repro.core.models import model_zoo
from repro.ml.metrics import auc_roc
from repro.ml.nn import MLPClassifier
from repro.ml.scaling import StandardScaler
from repro.runtime import blas
from tests.conftest import make_separable, svm_matrix


def nn_digest(m) -> str:
    """SHA-256 over every fitted output of an MLP."""
    h = hashlib.sha256()
    for a in (*m.weights_, *m.biases_, np.asarray(m.loss_curve_)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestMLP:
    def test_learns_linear_signal(self):
        X, y = make_separable(n=900, seed=50)
        Xte, yte = make_separable(n=400, seed=51)
        sc = StandardScaler().fit(X)
        m = MLPClassifier(hidden_layers=(40,), epochs=30, random_state=0).fit(
            sc.transform(X), y
        )
        assert auc_roc(yte, m.predict_proba(sc.transform(Xte))[:, 1]) > 0.85

    def test_learns_xor(self):
        """A hidden layer must solve what a linear model cannot."""
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(1200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        m = MLPClassifier(
            hidden_layers=(16,), epochs=80, learning_rate=3e-3,
            early_stopping_patience=None, random_state=0,
        ).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_two_hidden_layers(self):
        X, y = make_separable(n=600, seed=52)
        m = MLPClassifier(hidden_layers=(40, 10), epochs=15, random_state=0).fit(X, y)
        assert len(m.weights_) == 3
        assert m.weights_[0].shape == (X.shape[1], 40)
        assert m.weights_[1].shape == (40, 10)
        assert m.weights_[2].shape == (10, 1)

    def test_num_parameters_matches_architecture(self):
        X, y = make_separable(n=300, n_features=12, seed=53)
        m = MLPClassifier(hidden_layers=(40, 10), epochs=2, random_state=0).fit(X, y)
        expected = (12 * 40 + 40) + (40 * 10 + 10) + (10 * 1 + 1)
        assert m.num_parameters() == expected

    def test_proba_bounds(self):
        X, y = make_separable(n=300, seed=54)
        m = MLPClassifier(epochs=3, random_state=0).fit(X, y)
        p = m.predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_deterministic(self):
        X, y = make_separable(n=300, seed=55)
        p1 = MLPClassifier(epochs=5, random_state=9).fit(X, y).predict_proba(X)
        p2 = MLPClassifier(epochs=5, random_state=9).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_loss_decreases(self):
        X, y = make_separable(n=600, seed=56)
        m = MLPClassifier(
            epochs=20, early_stopping_patience=None, random_state=0
        ).fit(StandardScaler().fit_transform(X), y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_early_stopping_cuts_epochs(self):
        X, y = make_separable(n=600, seed=57)
        m = MLPClassifier(
            epochs=200, early_stopping_patience=2, random_state=0
        ).fit(X, y)
        assert len(m.loss_curve_) < 200

    def test_empty_hidden_raises(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layers=())

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict_proba(np.zeros((1, 3)))


class TestPinnedNN:
    """NN-1 and NN-2 as Table II builds them (``model_zoo("fast")``
    factories on standardised inputs, one BLAS thread), every fitted
    weight, bias and per-epoch loss pinned by SHA-256."""

    @pytest.mark.parametrize("name, epochs, digest", [
        # every epoch runs
        ("NN-1", 25, "60f9f06830226882d78305ce1457cc0ff75a5795496cdbfb2c14cb4e55666846"),
        # early stopping ends it and restores the best epoch's parameters
        ("NN-2", 6, "a66506245ba4a44ef06676bfdf4f7abc3fde1d17411337967574f3e034fb9038"),
    ])
    def test_zoo_network(self, name, epochs, digest):
        X, y = svm_matrix(600, 7)
        spec = next(s for s in model_zoo("fast") if s.name == name)
        with blas.thread_budget(spec.blas_threads):
            m = spec.factory().fit(StandardScaler().fit_transform(X), y)
        assert len(m.loss_curve_) == epochs
        assert nn_digest(m) == digest


class TestScalers:
    def test_standard_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5, scale=3, size=(200, 4))
        sc = StandardScaler().fit(X)
        Xs = sc.transform(X)
        assert np.allclose(Xs.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(Xs.std(axis=0), 1, atol=1e-9)
        assert np.allclose(sc.inverse_transform(Xs), X)

    def test_standard_constant_feature(self):
        X = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        Xs = StandardScaler().fit_transform(X)
        assert (Xs[:, 0] == 0).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))
