"""Tests for the SMO-trained RBF-kernel SVM."""

import numpy as np
import pytest

from repro.ml.metrics import auc_roc
from repro.ml.svm import KernelCache, SVMClassifier, rbf_kernel
from repro.runtime.telemetry import Tracer, activate
from tests.conftest import make_separable, svm_digest, svm_matrix


def _blobs(n=200, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(size=(n // 2, 2))
    X1 = rng.normal(size=(n // 2, 2)) + gap
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return X, y


class TestKernel:
    def test_rbf_diagonal_is_one(self):
        A = np.random.default_rng(0).normal(size=(10, 4))
        K = rbf_kernel(A, A, gamma=0.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_rbf_symmetric_positive(self):
        A = np.random.default_rng(1).normal(size=(15, 3))
        K = rbf_kernel(A, A, gamma=0.2)
        assert np.allclose(K, K.T)
        assert (K > 0).all() and (K <= 1 + 1e-12).all()

    def test_rbf_decays_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert rbf_kernel(a, near, 1.0)[0, 0] > rbf_kernel(a, far, 1.0)[0, 0]


class TestSVM:
    def test_separable_blobs(self):
        X, y = _blobs()
        m = SVMClassifier(C=1.0, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.98

    def test_margin_signs(self):
        X, y = _blobs(gap=5.0)
        m = SVMClassifier(C=1.0, random_state=0).fit(X, y)
        margins = m.decision_function(X)
        assert (margins[y == 1] > 0).mean() > 0.95
        assert (margins[y == 0] < 0).mean() > 0.95

    def test_kkt_dual_constraint(self):
        """At the solution, sum(alpha_i y_i) = 0 (the equality constraint)."""
        X, y = _blobs()
        m = SVMClassifier(C=1.0, random_state=0).fit(X, y)
        assert m.dual_coef_.sum() == pytest.approx(0.0, abs=1e-6)

    def test_support_vectors_subset(self):
        X, y = _blobs(gap=6.0)
        m = SVMClassifier(C=1.0, random_state=0).fit(X, y)
        # widely separated blobs need only a few SVs
        assert 0 < m.n_support_ < len(X) / 2

    def test_nonlinear_ring(self):
        """RBF must solve a radially separable problem a line cannot."""
        rng = np.random.default_rng(3)
        r = np.concatenate([rng.uniform(0, 1, 150), rng.uniform(2, 3, 150)])
        theta = rng.uniform(0, 2 * np.pi, 300)
        X = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        y = (r > 1.5).astype(int)
        m = SVMClassifier(C=10.0, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_learns_realistic_data(self):
        X, y = make_separable(n=700, seed=40)
        Xte, yte = make_separable(n=300, seed=41)
        m = SVMClassifier(C=10.0, random_state=0).fit(X, y)
        assert auc_roc(yte, m.decision_function(Xte)) > 0.85

    def test_subsample_cap(self):
        X, y = make_separable(n=2000, pos_rate=0.2, seed=42)
        m = SVMClassifier(C=1.0, max_train_samples=500, random_state=0).fit(X, y)
        assert m.n_support_ <= 500

    def test_subsample_keeps_all_positives(self):
        X, y = make_separable(n=2000, pos_rate=0.05, seed=43)
        m = SVMClassifier(C=1.0, max_train_samples=300, random_state=0)
        Xs, ys = m._subsample(X, y, np.random.default_rng(0))
        assert ys.sum() == y.sum()

    def test_proba_bounds(self):
        X, y = _blobs()
        m = SVMClassifier(random_state=0).fit(X, y)
        p = m.predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_num_parameters(self):
        X, y = _blobs()
        m = SVMClassifier(random_state=0).fit(X, y)
        assert m.num_parameters() == m.n_support_ * 3 + 1  # 2 features + coef + b

    def test_explicit_gamma(self):
        X, y = _blobs()
        m = SVMClassifier(gamma=0.3, random_state=0).fit(X, y)
        assert m.gamma_ == 0.3

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            SVMClassifier().fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]))

    def test_not_fitted_raises(self):
        with pytest.raises(RuntimeError):
            SVMClassifier().decision_function(np.zeros((1, 2)))


class TestPinnedSVM:
    """Fitted outputs pinned by SHA-256.  The digests were recorded with the
    solver that rebuilt ``-y * grad`` and both working-set masks over all
    rows every iteration, so a match proves the incremental bookkeeping
    changes no bit."""

    def test_below_subsample_cap(self):
        X, y = svm_matrix(300, 1)
        m = SVMClassifier(C=10.0, random_state=3).fit(X, y)
        assert (m.n_support_, m.n_iter_) == (295, 523)
        assert svm_digest(m) == (
            "e4163e487a4194af5be7ce13c8f2bb39dc7a3ccffee81e1c9966cf625dc2592e"
        )

    def test_above_subsample_cap(self):
        X, y = svm_matrix(600, 2)
        m = SVMClassifier(C=1.0, max_train_samples=400, random_state=3).fit(X, y)
        assert (m.n_support_, m.n_iter_) == (388, 608)
        assert svm_digest(m) == (
            "f257d9f021f14aa0a0fb6a286f249e8b24236caefa6487744036b9cbc01cf49e"
        )


class TestKernelCacheSharing:
    def _fit(self, X, y, cache=None, **kw):
        params = dict(max_train_samples=250, cache_rows=64, random_state=4) | kw
        return SVMClassifier(**params).fit(X, y, kernel_cache=cache)

    def test_shared_cache_gives_the_private_model(self):
        X, y = svm_matrix(400, 5)
        cache = KernelCache()
        for C in (1.0, 10.0, 1.0):
            shared = self._fit(X, y, cache, C=C)
            assert svm_digest(shared) == svm_digest(self._fit(X, y, C=C))

    def test_second_c_computes_fewer_rows_than_a_fresh_fit(self):
        X, y = svm_matrix(400, 5)
        with activate(Tracer()) as tracer:
            cache = KernelCache()
            first = self._fit(X, y, cache, C=1.0, cache_rows=1024)
            second = self._fit(X, y, cache, C=10.0, cache_rows=1024)
            fresh = self._fit(X, y, C=10.0, cache_rows=1024)
        assert second.n_iter_ == fresh.n_iter_
        rows = "ml.svm.kernel_rows"
        assert second.fit_stats_[rows] < fresh.fit_stats_[rows]
        assert first.fit_stats_[rows] + second.fit_stats_[rows] == cache.rows_computed
        # one emission per fit: the tracer holds the sums of fit_stats_
        for name in ("ml.svm.iterations", rows):
            assert tracer.counters[name] == sum(
                m.fit_stats_[name] for m in (first, second, fresh)
            )

    @pytest.mark.parametrize("change", [
        {"random_state": 5},  # another subsample of the same rows
        {"gamma": 0.01},  # another kernel on the same subsample
    ])
    def test_different_subsample_or_gamma_never_reuses_rows(self, change):
        X, y = svm_matrix(400, 5)
        cache = KernelCache()
        self._fit(X, y, cache, C=1.0, cache_rows=1024)
        other = self._fit(X, y, cache, C=1.0, cache_rows=1024, **change)
        private = self._fit(X, y, C=1.0, cache_rows=1024, **change)
        assert other.fit_stats_ == private.fit_stats_
        assert svm_digest(other) == svm_digest(private)
