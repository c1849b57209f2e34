"""Tests for the SHAP explainers — exactness, properties, text plots.

The tree explainer is validated against the exponential-time definition
(Eq. 2 of the paper) on randomly grown trees, and its axiomatic properties
(local accuracy, dummy, symmetry-ish behaviour) are property-tested.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.shap.brute import brute_force_shap, conditional_expectation
from repro.ml.shap.kernel import KernelShapExplainer
from repro.ml.shap.plots import build_explanation, force_plot_text
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime.telemetry import Tracer, activate


def _fit_small_forest(seed: int, n_features: int = 6, depth: int = 4, trees: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, n_features))
    w = rng.normal(size=n_features)
    y = ((X @ w + 0.5 * X[:, 0] * X[:, 1]) > 0).astype(int)
    rf = RandomForestClassifier(
        n_estimators=trees, max_depth=depth, random_state=seed
    ).fit(X, y)
    return rf, X


class TestTreeShapExactness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, seed):
        rf, X = _fit_small_forest(seed)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        x = X[seed % len(X)]
        fast = ex.shap_values_single(x)
        slow = brute_force_shap(rf.trees, x, X.shape[1])
        assert np.allclose(fast, slow, atol=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_local_accuracy(self, seed):
        """Eq. 1: base + sum(SHAP) == f(x), exactly."""
        rf, X = _fit_small_forest(seed, depth=6, trees=6)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        x = X[(seed * 7) % len(X)]
        phi = ex.shap_values_single(x)
        fx = rf.predict_proba(x[None])[0, 1]
        assert ex.expected_value + phi.sum() == pytest.approx(fx, abs=1e-9)

    def test_local_accuracy_on_flow_forest(self, small_flow):
        """Local accuracy on a real (unpruned, 387-feature) model."""
        X, y = small_flow.X, small_flow.y
        if y.sum() == 0:
            pytest.skip("flow produced no hotspots")
        rf = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        for row in (0, len(X) // 2):
            phi = ex.shap_values_single(X[row])
            fx = rf.predict_proba(X[row][None])[0, 1]
            assert ex.expected_value + phi.sum() == pytest.approx(fx, abs=1e-8)

    def test_dummy_feature_gets_zero(self):
        """A feature no tree splits on must receive zero attribution."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 5))
        y = (X[:, 0] > 0).astype(int)  # only feature 0 matters
        t = DecisionTreeClassifier(max_features=None, max_depth=3, random_state=0).fit(X, y)
        ex = TreeShapExplainer([t.tree_], 5)
        phi = ex.shap_values_single(X[3])
        used = set(t.tree_.feature[t.tree_.feature >= 0])
        for j in range(5):
            if j not in used:
                assert phi[j] == 0.0

    def test_expected_value_is_root_mean(self):
        rf, X = _fit_small_forest(1)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        assert ex.expected_value == pytest.approx(
            np.mean([t.value[0] for t in rf.trees])
        )

    def test_batch_matches_single(self):
        """Each row of a multi-row batch, split into several row chunks per
        group, matches its own single-row Eq. 2 (brute-force) evaluation."""
        rf, X = _fit_small_forest(2)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        ex.pass_bytes = 2048  # the larger groups take 2-3 rows per pass
        with activate(Tracer()) as tracer:
            batch = ex.shap_values(X[:8])
        assert tracer.counters["shap.chunks"] > len(ex._groups)
        for i in range(8):
            slow = brute_force_shap(rf.trees, X[i], X.shape[1])
            assert np.allclose(batch[i], slow, atol=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_batched_recurrences_match_reference(self, seed):
        """The vectorised EXTEND/UNWIND agrees with the Eq. 2 reference
        (brute force) on every row of a chunked batch."""
        rf, X = _fit_small_forest(seed, depth=6, trees=5)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        ex.pass_bytes = 4096
        rows = X[(seed % 7):(seed % 7) + 6]
        batch = ex.shap_values(rows)
        slow = np.vstack([brute_force_shap(rf.trees, x, X.shape[1]) for x in rows])
        assert np.allclose(batch, slow, atol=1e-10)

    def test_forest_is_mean_of_its_trees(self):
        """Merging every tree's leaves into shared groups keeps rows apart."""
        rf, X = _fit_small_forest(13, depth=6, trees=7)
        rows = X[:40]
        forest = TreeShapExplainer(rf.trees, X.shape[1]).shap_values(rows)
        per_tree = [TreeShapExplainer([t], X.shape[1]).shap_values(rows) for t in rf.trees]
        assert np.abs(forest - np.mean(per_tree, axis=0)).max() <= 1e-15

    def test_batch_chunking_is_seamless(self):
        """Results must not depend on where the chunk boundaries fall."""
        rf, X = _fit_small_forest(9, trees=3)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        whole = ex.shap_values(X[:30])
        ex.pass_bytes = 1000  # uneven chunks, sized per group
        chunked = ex.shap_values(X[:30])
        assert np.array_equal(whole, chunked)

    def test_batch_local_accuracy(self):
        rf, X = _fit_small_forest(10, depth=5, trees=6)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        phi = ex.shap_values(X[:25])
        fx = rf.predict_proba(X[:25])[:, 1]
        assert np.allclose(ex.expected_value + phi.sum(axis=1), fx, atol=1e-9)

    def test_batch_wrong_feature_count_raises(self):
        rf, X = _fit_small_forest(11)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        with pytest.raises(ValueError):
            ex.shap_values(np.zeros((4, X.shape[1] + 1)))

    def test_batch_single_row_input(self):
        rf, X = _fit_small_forest(12)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        assert np.allclose(
            ex.shap_values(X[0]), ex.shap_values_single(X[0])[None, :]
        )

    def test_single_leaf_tree(self):
        X = np.zeros((10, 3))
        y = np.ones(10, dtype=int)
        t = DecisionTreeClassifier(random_state=0).fit(X, y)
        ex = TreeShapExplainer([t.tree_], 3)
        phi = ex.shap_values_single(np.zeros(3))
        assert np.allclose(phi, 0.0)
        assert ex.expected_value == 1.0

    def test_wrong_feature_count_raises(self):
        rf, X = _fit_small_forest(3)
        ex = TreeShapExplainer(rf.trees, X.shape[1])
        with pytest.raises(ValueError):
            ex.shap_values_single(np.zeros(X.shape[1] + 2))

    def test_empty_trees_raises(self):
        with pytest.raises(ValueError):
            TreeShapExplainer([], 3)


@pytest.fixture(scope="module")
def forest_batch():
    """A 20-tree, depth-8 forest on 40 synthetic features and a 1000-row batch.

    Returns the forest, the rows, their explainer, the batch's SHAP values
    and the counters of the tracer that was active while computing them.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 40))
    y = (X[:, 0] + X[:, 3] * X[:, 5] - X[:, 7] > 0).astype(np.int8)
    rf = RandomForestClassifier(n_estimators=20, max_depth=8, random_state=0).fit(X, y)
    ex = TreeShapExplainer(rf.trees, X.shape[1])
    with activate(Tracer()) as tracer:
        phi = ex.shap_values(X[:1000])
    return rf, X[:1000], ex, phi, dict(tracer.counters)


class TestBatchedPasses:
    def test_batch_needs_far_fewer_group_passes(self, forest_batch):
        """A 1000-row batch costs <= 1/20 of the per-row loop's group passes."""
        _, X, ex, _, batched = forest_batch
        with activate(Tracer()) as looped:
            for x in X:
                ex.shap_values_single(x)
        assert looped.counters["shap.single_rows"] == len(X)
        assert looped.counters["shap.rows"] == batched["shap.rows"] == len(X)
        assert 20 * batched["shap.chunks"] <= looped.counters["shap.chunks"]

    def test_batch_local_accuracy_on_every_row(self, forest_batch):
        rf, X, ex, phi, _ = forest_batch
        fx = rf.predict_proba(X)[:, 1]
        assert np.abs(ex.expected_value + phi.sum(axis=1) - fx).max() <= 1e-9


class TestBruteForce:
    def test_conditional_expectation_all_known_is_prediction(self):
        rf, X = _fit_small_forest(4, trees=1)
        tree = rf.trees[0]
        x = X[0]
        known = frozenset(range(X.shape[1]))
        assert conditional_expectation(tree, x, known) == pytest.approx(
            tree.predict_proba_positive(x[None])[0]
        )

    def test_conditional_expectation_none_known_is_base(self):
        rf, X = _fit_small_forest(5, trees=1)
        tree = rf.trees[0]
        v = conditional_expectation(tree, X[0], frozenset())
        assert v == pytest.approx(tree.value[0])


class TestKernelShap:
    def test_efficiency_exact(self):
        """Kernel SHAP satisfies sum(phi) = f(x) − E[f] by construction."""
        rf, X = _fit_small_forest(6, n_features=5)
        predict = lambda A: rf.predict_proba(A)[:, 1]
        ex = KernelShapExplainer(predict, background=X[:50])
        x = X[0]
        phi = ex.shap_values_single(x)
        fx = float(predict(x[None])[0])
        assert phi.sum() == pytest.approx(fx - ex.expected_value, abs=1e-8)

    def test_close_to_tree_shap_on_independent_features(self):
        """With independent features, both definitions roughly agree."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] + 2 * X[:, 1] > 0).astype(int)
        rf = RandomForestClassifier(n_estimators=8, max_depth=4, random_state=0).fit(X, y)
        tree_ex = TreeShapExplainer(rf.trees, 4)
        kern_ex = KernelShapExplainer(
            lambda A: rf.predict_proba(A)[:, 1], background=X[:100]
        )
        x = X[1]
        phi_t = tree_ex.shap_values_single(x)
        phi_k = kern_ex.shap_values_single(x)
        # same ranking of the two informative features
        assert np.argmax(np.abs(phi_t)) == np.argmax(np.abs(phi_k))

    def test_sampled_coalitions_run(self):
        rf, X = _fit_small_forest(8, n_features=6)
        ex = KernelShapExplainer(
            lambda A: rf.predict_proba(A)[:, 1],
            background=X[:30],
            n_coalitions=60,
            random_state=0,
        )
        phi = ex.shap_values_single(X[0])
        assert phi.shape == (6,)
        assert np.isfinite(phi).all()


class TestPlots:
    def _explanation(self):
        shap_vals = np.array([0.2, -0.05, 0.01, 0.0])
        values = np.array([3.0, -4.0, 0.5, 9.0])
        names = ["edM5_7H", "vlV2_o", "pins_o", "x_o"]
        return build_explanation(0.1, 0.26, shap_vals, values, names)

    def test_local_accuracy_check(self):
        e = self._explanation()
        assert e.check_local_accuracy()

    def test_top_sorted_by_magnitude(self):
        e = self._explanation()
        top = e.top(2)
        assert top[0].name == "edM5_7H"
        assert top[1].name == "vlV2_o"

    def test_force_plot_text_contents(self):
        text = force_plot_text(self._explanation(), top_k=2)
        assert "base value" in text
        assert "edM5_7H" in text
        assert "f(x)" in text
        assert "more likely" in text

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_explanation(0.1, 0.2, np.zeros(3), np.zeros(4), ["a", "b", "c"])
