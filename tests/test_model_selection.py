"""Tests for grouped CV, grid search and complexity accounting."""

import hashlib

import numpy as np
import pytest

from repro.ml.binning import BinnedDataset
from repro.ml.complexity import complexity_of
from repro.ml.boosting import RUSBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import (
    GroupKFold,
    grid_search,
    iterate_grid,
    positive_scores,
)
from repro.ml.nn import MLPClassifier
from repro.ml.svm import SVMClassifier
from tests.conftest import make_separable, svm_digest, svm_matrix


class TestGroupKFold:
    def test_leave_one_group_out(self):
        groups = np.array([0, 0, 1, 1, 2, 2, 2])
        splits = GroupKFold().split(groups)
        assert len(splits) == 3
        for train, val, g in splits:
            assert set(groups[val]) == {g}
            assert g not in set(groups[train])
            assert len(train) + len(val) == len(groups)

    def test_no_sample_in_both(self):
        groups = np.array([0, 1, 0, 1, 2])
        for train, val, _ in GroupKFold().split(groups):
            assert not set(train) & set(val)


class TestGrid:
    def test_iterate_grid_combinations(self):
        grid = {"a": [1, 2], "b": ["x", "y", "z"]}
        combos = iterate_grid(grid)
        assert len(combos) == 6
        assert {"a": 1, "b": "x"} in combos

    def test_empty_grid(self):
        assert iterate_grid({}) == [{}]

    def test_grid_search_picks_better_depth(self):
        """Grid search must prefer a depth that actually validates better."""
        X, y = make_separable(n=1200, seed=60)
        groups = np.repeat(np.arange(4), 300)

        def factory(max_depth=1):
            return RandomForestClassifier(
                n_estimators=15, max_depth=max_depth, random_state=0
            )

        result = grid_search(factory, {"max_depth": [1, 8]}, X, y, groups)
        assert result.best_params == {"max_depth": 8}
        assert len(result.table) == 2
        assert result.best_score > 0.4
        assert "max_depth" in result.format_table()

    def test_skips_single_class_folds(self):
        X, y = make_separable(n=400, seed=61)
        y[:100] = 0  # group 0's fold has no positives
        groups = np.repeat(np.arange(4), 100)

        def factory():
            return RandomForestClassifier(n_estimators=5, random_state=0)

        result = grid_search(factory, {}, X, y, groups)
        (params, mean, folds) = result.table[0]
        assert len(folds) <= 3 or all(np.isfinite(folds))

    def test_all_folds_skipped_scores_minus_inf(self):
        """Every fold single-class: no config is ever fitted, every mean is
        -inf, and the first grid configuration wins deterministically."""
        rng = np.random.default_rng(66)
        X = rng.normal(size=(80, 4))
        groups = np.repeat([0, 1], 40)
        y = (groups == 0).astype(np.int8)  # each held-out group is pure

        def factory(max_depth=1):
            return RandomForestClassifier(
                n_estimators=3, max_depth=max_depth, random_state=0
            )

        result = grid_search(factory, {"max_depth": [1, 8]}, X, y, groups)
        assert result.best_score == float("-inf")
        assert result.best_params == {"max_depth": 1}
        for _, mean, folds in result.table:
            assert folds == [] and mean == float("-inf")

    def test_grid_search_with_shared_binned_dataset(self):
        """The bin-once path must pick the same winner as the plain path."""
        X, y = make_separable(n=1200, seed=60)
        groups = np.repeat(np.arange(4), 300)
        binned = BinnedDataset.from_matrix(X)

        def factory(max_depth=1):
            return RandomForestClassifier(
                n_estimators=15, max_depth=max_depth, random_state=0
            )

        result = grid_search(
            factory, {"max_depth": [1, 8]}, X, y, groups, binned=binned
        )
        assert result.best_params == {"max_depth": 8}
        assert result.best_score > 0.4

    def test_svm_grid_pinned(self):
        """A two-C grid over three groups, its fitted models and its table
        pinned by SHA-256.  The digests were recorded with the param-major
        loop that gave every fit a private kernel cache, so a match proves
        fold-shared rows change no model and no score."""
        X, y = svm_matrix(480, 3)
        groups = np.repeat([0, 1, 2], 160)
        fitted = []

        def svm(C):
            return SVMClassifier(C=C, max_train_samples=250, cache_rows=64,
                                 random_state=4)

        def factory(C):
            fitted.append(svm(C))
            return fitted[-1]

        result = grid_search(factory, {"C": [1.0, 10.0]}, X, y, groups)
        assert sorted(m.n_iter_ for m in fitted) == [384, 393, 399, 437, 445, 451]
        models = "".join(sorted(svm_digest(m) for m in fitted))
        assert hashlib.sha256(models.encode()).hexdigest() == (
            "fce572d12c49556e741010bbb94a12bdca830291d7d3da820b950da4af1bc534"
        )
        assert hashlib.sha256(repr(result.table).encode()).hexdigest() == (
            "b7a3c5c7e0390ace8c7f66bd15d25e228abcfba2e4811af93ecf260bae92ca6d"
        )
        assert [params for params, _, _ in result.table] == [{"C": 1.0}, {"C": 10.0}]
        # fold-major: the second C of each fold reused the first's rows
        rows = "ml.svm.kernel_rows"
        for (train, _, _), second in zip(GroupKFold().split(groups), fitted[1::2]):
            fresh = svm(10.0).fit(X[train], y[train])
            assert second.fit_stats_[rows] < fresh.fit_stats_[rows]

    def test_binned_row_mismatch_raises(self):
        X, y = make_separable(n=200, seed=67)
        binned = BinnedDataset.from_matrix(X)
        with pytest.raises(ValueError):
            grid_search(
                lambda: RandomForestClassifier(n_estimators=2, random_state=0),
                {},
                X[:100],
                y[:100],
                np.repeat([0, 1], 50),
                binned=binned,
            )


class TestPositiveScores:
    def test_extracts_positive_column(self):
        X, y = make_separable(n=200, seed=62)
        m = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        s = positive_scores(m, X)
        assert np.allclose(s, m.predict_proba(X)[:, 1])


class TestComplexity:
    def test_all_model_types_dispatch(self):
        X, y = make_separable(n=400, seed=63)
        X_ref = X[:100]
        models = [
            ("RF", RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)),
            ("RUSBoost", RUSBoostClassifier(n_estimators=5, random_state=0).fit(X, y)),
            ("SVM", SVMClassifier(max_train_samples=200, random_state=0).fit(X, y)),
            ("NN", MLPClassifier(epochs=2, random_state=0).fit(X, y)),
        ]
        for name, model in models:
            rep = complexity_of(model, X_ref, name)
            assert rep.num_parameters > 0
            assert rep.prediction_ops_per_sample > 0
            assert name in rep.format_row()

    def test_svm_ops_dominate_rf(self):
        """The paper's key complexity claim at any scale: SVM-RBF needs far
        more operations per prediction than RF."""
        X, y = make_separable(n=800, seed=64)
        rf = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        svm = SVMClassifier(max_train_samples=800, random_state=0).fit(X, y)
        rf_ops = complexity_of(rf, X[:100], "RF").prediction_ops_per_sample
        svm_ops = complexity_of(svm, X[:100], "SVM").prediction_ops_per_sample
        assert svm_ops > 10 * rf_ops

    def test_tree_ops_match_per_tree_walks(self):
        """Path lengths from the stacked traversal give the same float, bit
        for bit, as walking every tree on its own and summing in tree order."""
        X, y = make_separable(n=500, seed=66)
        X_ref = X[:300]
        models = [
            (RandomForestClassifier(n_estimators=12, random_state=0).fit(X, y), 1.0),
            (RUSBoostClassifier(n_estimators=6, random_state=0).fit(X, y), 2.0),
        ]
        for model, per_tree in models:
            expected = 0.0
            for t in model.trees:
                expected += float(t.decision_path_lengths(X_ref).mean())
                expected += per_tree
            expected += 1.0
            rep = complexity_of(model, X_ref, "m")
            assert rep.prediction_ops_per_sample == expected

    def test_unknown_model_raises(self):
        with pytest.raises(TypeError):
            complexity_of(object(), np.zeros((1, 2)), "x")

    def test_mlp_params_match_ops_scale(self):
        X, y = make_separable(n=200, n_features=10, seed=65)
        m = MLPClassifier(hidden_layers=(20,), epochs=2, random_state=0).fit(X, y)
        rep = complexity_of(m, X, "NN")
        assert rep.prediction_ops_per_sample > rep.num_parameters  # ~2x MACs
