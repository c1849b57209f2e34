"""Tests for SHAP interaction values."""

from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.shap.brute import brute_force_shap, conditional_expectation
from repro.ml.shap.interactions import (
    interaction_values,
    interaction_values_single_tree,
    top_interactions,
)
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.ml.tree import DecisionTreeClassifier


def _bagged_trees(X, y, n_trees: int, max_depth: int, seed: int):
    """Bootstrap trees that consider every feature at every node, each from
    its own child generator of ``seed`` drawing its bootstrap first, as the
    Random Forest draws them."""
    n = len(y)
    trees = []
    for rng in np.random.default_rng(seed).spawn(n_trees):
        w = rng.multinomial(n, np.full(n, 1.0 / n))
        tree = DecisionTreeClassifier(max_depth=max_depth, max_features=None,
                                      random_state=rng)
        trees.append(tree.fit(X, y, sample_weight=w).tree_)
    return trees


def _and_forest(seed: int = 0):
    """A model with a genuine x0-x1 interaction (AND-like target)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(500, 4))
    y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(int)
    # all features at every node: 4 trees under "sqrt" sampling can miss
    # the AND structure in some trees, making the interaction mass a coin
    # flip on the per-node draws rather than a property of the model
    return _bagged_trees(X, y, 4, 3, seed), X


class TestInteractionValues:
    def test_symmetry(self):
        trees, X = _and_forest()
        mat = interaction_values(trees, X[0], [0, 1, 2, 3])
        assert np.allclose(mat, mat.T)

    def test_matrix_total_matches_value_difference(self):
        """Σ_ij Phi_ij = v(features) − v(∅), exactly (restricted game)."""
        trees, X = _and_forest()
        feats = [0, 1, 2, 3]
        x = X[1]
        mat = interaction_values(trees, x, feats)
        expect = np.mean(
            [
                conditional_expectation(t, x, frozenset(feats))
                - conditional_expectation(t, x, frozenset())
                for t in trees
            ]
        )
        assert mat.sum() == pytest.approx(expect, abs=1e-10)

    def test_row_sums_equal_full_shap_when_all_features_included(self):
        """With the full feature set, row sums are the ordinary SHAP values."""
        trees, X = _and_forest(seed=1)
        x = X[2]
        mat = interaction_values(trees, x, [0, 1, 2, 3])
        phi = TreeShapExplainer(trees, 4).shap_values_single(x)
        assert np.allclose(mat.sum(axis=1), phi, atol=1e-10)

    def test_and_interaction_is_captured(self):
        """The AND structure puts real mass on the (x0, x1) off-diagonal."""
        trees, X = _and_forest(seed=2)
        both_high = X[(X[:, 0] > 0.5) & (X[:, 1] > 0.5)][0]
        mat = interaction_values(trees, both_high, [0, 1, 2, 3])
        assert abs(mat[0, 1]) > 1e-3
        # the signal interaction dominates spurious noise-pair interactions
        assert abs(mat[0, 1]) > 10 * abs(mat[2, 3])

    def test_additive_model_has_no_interactions(self):
        """A sum of single-feature stumps has a diagonal interaction matrix."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 3))
        trees = []
        for j in range(3):
            y = (X[:, j] > 0).astype(int)
            t = DecisionTreeClassifier(max_depth=1, max_features=None, random_state=j)
            t.fit(X, y)
            trees.append(t.tree_)
        mat = interaction_values(trees, X[0], [0, 1, 2])
        off_diag = mat - np.diag(np.diag(mat))
        assert np.allclose(off_diag, 0.0, atol=1e-12)

    def test_needs_two_features(self):
        trees, X = _and_forest()
        with pytest.raises(ValueError):
            interaction_values_single_tree(trees[0], X[0], [0])

    def test_top_interactions_workflow(self):
        trees, X = _and_forest(seed=4)
        explainer = TreeShapExplainer(trees, 4)
        feats, mat = top_interactions(explainer, trees, X[0], k=3)
        assert len(feats) == 3
        assert mat.shape == (3, 3)
        assert np.allclose(mat, mat.T)


# -- reference loops: each game's own value cache and Shapley sum, as they were
# written before brute.py owned one enumerator for both --


def _brute_force_shap_single_tree_loop(tree, x, num_features):
    x = np.asarray(x, dtype=np.float64).ravel()
    features = list(range(num_features))
    M = num_features
    cache = {}

    def v(S):
        if S not in cache:
            cache[S] = conditional_expectation(tree, x, S)
        return cache[S]

    phi = np.zeros(M)
    for j in features:
        others = [f for f in features if f != j]
        for size in range(M):
            weight = factorial(size) * factorial(M - size - 1) / factorial(M)
            for S in combinations(others, size):
                S_set = frozenset(S)
                phi[j] += weight * (v(S_set | {j}) - v(S_set))
    return phi


def _interaction_values_single_tree_loop(tree, x, features):
    x = np.asarray(x, dtype=np.float64).ravel()
    M = len(features)
    cache = {}

    def v(S):
        if S not in cache:
            cache[S] = conditional_expectation(tree, x, S)
        return cache[S]

    phi_matrix = np.zeros((M, M))
    for a in range(M):
        for b in range(a + 1, M):
            i, j = features[a], features[b]
            others = [f for f in features if f not in (i, j)]
            total = 0.0
            for size in range(M - 1):
                weight = factorial(size) * factorial(M - size - 2) / (2.0 * factorial(M - 1))
                for S in combinations(others, size):
                    S_set = frozenset(S)
                    total += weight * (
                        v(S_set | {i, j}) - v(S_set | {i}) - v(S_set | {j}) + v(S_set)
                    )
            phi_matrix[a, b] = phi_matrix[b, a] = total
    for a in range(M):
        i = features[a]
        others = [f for f in features if f != i]
        phi_i = 0.0
        for size in range(M):
            weight = factorial(size) * factorial(M - size - 1) / factorial(M)
            for S in combinations(others, size):
                S_set = frozenset(S)
                phi_i += weight * (v(S_set | {i}) - v(S_set))
        phi_matrix[a, a] = phi_i - phi_matrix[a].sum() + phi_matrix[a, a]
    return phi_matrix


class TestOneShapleyEnumerator:
    """brute_force_shap and interaction_values share one value function and
    one Shapley sum; both stay bit-identical to their former own loops."""

    @given(st.integers(0, 10_000), st.integers(1, 4), st.data())
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_reference_loops(self, seed, depth, data):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 5))
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=200)) > 0).astype(int)
        trees = _bagged_trees(X, y, 2, depth, seed)
        x = X[seed % len(X)]
        features = data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=5, unique=True))

        phi = np.mean([_brute_force_shap_single_tree_loop(t, x, 5) for t in trees], axis=0)
        assert np.array_equal(brute_force_shap(trees, x, 5), phi)
        mat = np.mean(
            [_interaction_values_single_tree_loop(t, x, features) for t in trees], axis=0
        )
        assert np.array_equal(interaction_values(trees, x, features), mat)
