"""Brute-force SHAP: the exponential-time definition, for validation.

Evaluates Eq. 2 of the paper literally: for every subset S of the features,
the conditional expectation ``E[f(x) | x_S]`` is computed by tree traversal
(a feature in S follows x; a feature outside S averages both children by
training cover — the same path-dependent value function the tree explainer
uses), and Shapley weights combine the marginal contributions.

Cost is O(2^M · tree size); use only on toy models (tests keep M ≤ 8).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Callable

import numpy as np

from ..tree import LEAF, TreeArrays


def conditional_expectation(
    tree: TreeArrays, x: np.ndarray, known: frozenset[int]
) -> float:
    """E[f(x) | x_known] under the path-dependent tree distribution."""

    def walk(node: int) -> float:
        left = int(tree.children_left[node])
        if left == LEAF:
            return float(tree.value[node])
        right = int(tree.children_right[node])
        feat = int(tree.feature[node])
        if feat in known:
            follow = left if x[feat] < tree.threshold[node] else right
            return walk(follow)
        cover = tree.cover[node]
        if cover <= 0:
            return float(tree.value[node])
        wl = tree.cover[left] / cover
        wr = tree.cover[right] / cover
        return wl * walk(left) + wr * walk(right)

    return walk(0)


def value_function(tree: TreeArrays, x: np.ndarray) -> Callable[[frozenset[int]], float]:
    """The memoised game ``v(S) = E[f(x) | x_S]`` of one tree at one sample."""
    x = np.asarray(x, dtype=np.float64).ravel()
    cache: dict[frozenset[int], float] = {}

    def v(S: frozenset[int]) -> float:
        if S not in cache:
            cache[S] = conditional_expectation(tree, x, S)
        return cache[S]

    return v


def shapley_values(
    v: Callable[[frozenset[int]], float], features: list[int]
) -> np.ndarray:
    """Shapley value of each of ``features`` in the game ``v`` restricted to them.

    Eq. 2 summed literally: for feature ``j``, every subset ``S`` of the
    other features adds ``|S|!(M−|S|−1)!/M! · (v(S ∪ {j}) − v(S))``.
    """
    M = len(features)
    phi = np.zeros(M)
    for a, j in enumerate(features):
        others = [f for f in features if f != j]
        for size in range(M):
            weight = factorial(size) * factorial(M - size - 1) / factorial(M)
            for S in combinations(others, size):
                S_set = frozenset(S)
                phi[a] += weight * (v(S_set | {j}) - v(S_set))
    return phi


def brute_force_shap_single_tree(
    tree: TreeArrays, x: np.ndarray, num_features: int
) -> np.ndarray:
    """Exact Shapley values of one tree for one sample (exponential time)."""
    return shapley_values(value_function(tree, x), list(range(num_features)))


def brute_force_shap(
    trees: list[TreeArrays], x: np.ndarray, num_features: int
) -> np.ndarray:
    """Exact Shapley values of a tree-mean ensemble (for tests)."""
    phis = [brute_force_shap_single_tree(t, x, num_features) for t in trees]
    return np.mean(phis, axis=0)
