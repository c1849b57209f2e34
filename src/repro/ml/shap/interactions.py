"""SHAP interaction values (Lundberg, Erion & Lee 2018, Sec. 4).

The paper notes that "there are usually complex feature interactions in
the prediction, which must be captured" (Sec. III-C); SHAP *interaction*
values split each feature's attribution into main effects and pairwise
interaction terms:

    Phi_ij = Σ_{S ⊆ F\\{i,j}}  |S|!(M−|S|−2)! / (2(M−1)!) · ∇_ij(S),
    ∇_ij(S) = v(S∪{i,j}) − v(S∪{i}) − v(S∪{j}) + v(S),          i ≠ j
    Phi_ii = phi_i − Σ_{j≠i} Phi_ij,

with the same path-dependent tree value function ``v`` as the tree
explainer.  Guarantees (tested): the matrix is symmetric and each row sums
to the feature's ordinary SHAP value, so the full matrix sums to
``f(x) − E[f]``.

This implementation enumerates subsets (O(2^M · tree)), intended for
*feature-subset* analyses — e.g. interactions among the top-k features of
an explained hotspot — not for all 387 features at once.  Use
:func:`top_interactions` for that workflow.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

import numpy as np

from ..tree import TreeArrays
from .brute import shapley_values, value_function
from .tree_explainer import TreeShapExplainer


def interaction_values_single_tree(
    tree: TreeArrays, x: np.ndarray, features: list[int]
) -> np.ndarray:
    """Exact SHAP interaction matrix over ``features`` for one tree.

    Features outside ``features`` are never conditioned on (they stay
    marginalised by cover weighting in every evaluation), i.e. the game is
    restricted to the chosen feature subset; row sums equal the restricted
    game's ordinary Shapley values and the matrix total equals
    ``E[f | x_features] − E[f]``.
    """
    M = len(features)
    if M < 2:
        raise ValueError("need at least two features for interactions")
    v = value_function(tree, x)

    phi_matrix = np.zeros((M, M))
    # off-diagonal terms
    for a in range(M):
        for b in range(a + 1, M):
            i, j = features[a], features[b]
            others = [f for f in features if f not in (i, j)]
            total = 0.0
            for size in range(M - 1):
                if size > len(others):
                    continue
                weight = (
                    factorial(size)
                    * factorial(M - size - 2)
                    / (2.0 * factorial(M - 1))
                )
                for S in combinations(others, size):
                    S_set = frozenset(S)
                    delta = (
                        v(S_set | {i, j})
                        - v(S_set | {i})
                        - v(S_set | {j})
                        + v(S_set)
                    )
                    total += weight * delta
            phi_matrix[a, b] = phi_matrix[b, a] = total

    # main effects from the restricted game's ordinary Shapley values
    phi = shapley_values(v, features)
    for a in range(M):
        phi_matrix[a, a] = phi[a] - phi_matrix[a].sum() + phi_matrix[a, a]
    return phi_matrix


def interaction_values(
    trees: list[TreeArrays], x: np.ndarray, features: list[int]
) -> np.ndarray:
    """Interaction matrix of a tree-mean ensemble over a feature subset."""
    mats = [interaction_values_single_tree(t, x, features) for t in trees]
    return np.mean(mats, axis=0)


def top_interactions(
    explainer: TreeShapExplainer,
    trees: list[TreeArrays],
    x: np.ndarray,
    k: int = 6,
) -> tuple[list[int], np.ndarray]:
    """Interaction matrix among the k strongest SHAP features of ``x``.

    Returns (feature indices, k×k matrix).  The k features are chosen by
    |SHAP| from the full exact explanation, then the interaction game is
    solved exactly on that subset.
    """
    phi = explainer.shap_values_single(x)
    chosen = np.argsort(-np.abs(phi))[:k].tolist()
    return chosen, interaction_values(trees, x, chosen)
