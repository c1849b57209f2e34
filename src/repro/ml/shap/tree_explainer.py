"""Path-dependent Tree SHAP (Lundberg, Erion & Lee 2018) from scratch.

Computes exact SHAP values (Eq. 2 of the paper) for decision-tree ensembles
in polynomial time, using the conditional expectation defined by the trees
themselves: descending a tree, a feature *in* the coalition follows the
sample's branch, a feature *outside* splits the flow between both children
proportionally to their training cover — the "path-dependent" value
function of the SHAP tree explainer the paper adopts.

Formulation.  Algorithm 2 of Lundberg et al. maintains, along each
root-to-leaf path, a polynomial of coalition-size weights (EXTEND) and
reads off each feature's Shapley weight by removing it (UNWIND).  We use
the equivalent *per-leaf closed form*: for leaf ``l`` with unique path
features ``U_l`` (duplicate features merged: zero-fractions multiply,
one-fractions AND),

    phi_u  +=  v_l · (o_u − z_u) · W(l, u),

where ``z_u`` is the product of cover ratios of u's path segments, ``o_u``
indicates whether x satisfies them all, and ``W(l, u)`` is the Shapley
kernel sum the EXTEND/UNWIND polynomial evaluates.  Grouping the leaves of
*every* tree of the forest by unique-path length (the path packing of
GPUTreeShap, Mitchell, Frank & Holmes 2022) leaves about as many groups as
the deepest path is long, and each EXTEND/UNWIND step runs vectorised across
all samples and all leaves of a group — numpy-speed SHAP with no compiled
code.  One kernel serves one row or many: a single explanation is a batch of
one.

Properties guaranteed (and property-tested): **local accuracy**
``Σ_u phi_u = f(x) − E[f]`` to float precision, and exact agreement with
the brute-force Shapley computation on small trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...runtime.telemetry import get_tracer
from ..tree import LEAF, TreeArrays


@dataclass
class _LeafGroup:
    """All leaves of the forest with the same unique-path length D."""

    depth: int  # D: number of unique features per leaf path
    leaf_value: np.ndarray  # (L,)
    z: np.ndarray  # (L, D) zero fractions (cover-ratio products)
    slot_feature: np.ndarray  # (L, D) global feature index per slot
    # flattened segment arrays, for evaluating one-fractions o(x):
    seg_feature: np.ndarray  # (S,) global feature id
    seg_threshold: np.ndarray  # (S,)
    seg_is_left: np.ndarray  # (S,) bool: the path takes the left branch
    #: (L·D,) start index of each (row, slot) segment run.  The builder emits
    #: segments row-major with slots in increasing order, so every (row, slot)
    #: pair owns one contiguous run — ``np.logical_and.reduceat`` over these
    #: starts evaluates all one-fractions of a whole sample batch at once.
    seg_starts: np.ndarray


def _collect_leaf_paths(
    tree: TreeArrays,
) -> list[tuple[float, list[tuple[int, float, bool, float]]]]:
    """DFS to (leaf value, path segments); segment = (feat, thr, left, ratio)."""
    out: list[tuple[float, list[tuple[int, float, bool, float]]]] = []
    stack: list[tuple[int, list[tuple[int, float, bool, float]]]] = [(0, [])]
    while stack:
        node, segs = stack.pop()
        left = tree.children_left[node]
        if left == LEAF:
            out.append((float(tree.value[node]), segs))
            continue
        right = tree.children_right[node]
        feat = int(tree.feature[node])
        thr = float(tree.threshold[node])
        cover = tree.cover[node]
        r_left = tree.cover[left] / cover if cover > 0 else 0.0
        r_right = tree.cover[right] / cover if cover > 0 else 0.0
        stack.append((int(left), segs + [(feat, thr, True, r_left)]))
        stack.append((int(right), segs + [(feat, thr, False, r_right)]))
    return out


def _build_groups(trees: list[TreeArrays]) -> list[_LeafGroup]:
    """Preprocess a forest into depth-grouped leaf path tables.

    Leaves of every tree with the same unique-path length share one group,
    so a forest yields about as many groups as its deepest path is long.
    """
    by_depth: dict[int, list[tuple[float, dict[int, float], list]]] = {}
    for tree in trees:
        for value, segs in _collect_leaf_paths(tree):
            # merge duplicate features: zero fractions multiply; slots follow
            # each feature's first split on the path
            z_of: dict[int, float] = {}
            for feat, _, _, ratio in segs:
                z_of[feat] = z_of.get(feat, 1.0) * ratio
            by_depth.setdefault(len(z_of), []).append((value, z_of, segs))

    groups: list[_LeafGroup] = []
    for depth, leaves in sorted(by_depth.items()):
        if depth == 0:
            continue  # a leaf with no splits contributes only to the base
        n = len(leaves)
        z = np.zeros((n, depth))
        slot_feature = np.zeros((n, depth), dtype=np.int64)
        leaf_value = np.zeros(n)
        seg_run: list[int] = []  # (row, slot) pair as row·D + slot
        seg_feature: list[int] = []
        seg_threshold: list[float] = []
        seg_is_left: list[bool] = []
        for row, (value, z_of, segs) in enumerate(leaves):
            leaf_value[row] = value
            z[row] = list(z_of.values())
            slot_feature[row] = list(z_of)
            run_of = {feat: row * depth + slot for slot, feat in enumerate(z_of)}
            for feat, thr, is_left, _ in segs:
                seg_run.append(run_of[feat])
                seg_feature.append(feat)
                seg_threshold.append(thr)
                seg_is_left.append(is_left)
        # one contiguous run per (row, slot); path order within a run
        order = np.argsort(seg_run, kind="stable")
        run = np.asarray(seg_run, dtype=np.int64)[order]
        groups.append(
            _LeafGroup(
                depth=depth,
                leaf_value=leaf_value,
                z=z,
                slot_feature=slot_feature,
                seg_feature=np.asarray(seg_feature, dtype=np.int64)[order],
                seg_threshold=np.asarray(seg_threshold)[order],
                seg_is_left=np.asarray(seg_is_left, dtype=bool)[order],
                seg_starts=np.flatnonzero(np.r_[True, run[1:] != run[:-1]]),
            )
        )
    return groups


def _group_pass(group: _LeafGroup, X: np.ndarray, phi: np.ndarray) -> None:
    """Add one leaf-group's SHAP contributions for a batch ``X`` into ``phi``.

    EXTEND runs with leading (sample, leaf) axes and UNWIND adds a trailing
    slot axis, so the Python-level loops cost O(D²) per pass however many
    samples and leaves it covers.  ``phi`` is the (n, num_features)
    accumulator; every sample's arithmetic is independent of the others in
    the batch.
    """
    D = group.depth
    L = len(group.leaf_value)
    n = X.shape[0]
    # one-fractions: AND each (leaf, slot) segment run, all samples at once
    sat = (X[:, group.seg_feature] < group.seg_threshold) == group.seg_is_left
    o = np.logical_and.reduceat(sat, group.seg_starts, axis=1)
    o = o.reshape(n, L, D).astype(np.float64)
    z = group.z  # (L, D), broadcasts against the (n, L) sample-leaf planes

    # EXTEND: coalition-size weight polynomial, vectorised over (sample, leaf)
    W = np.zeros((n, L, D + 1))
    W[..., 0] = 1.0
    for t in range(1, D + 1):
        zt = z[:, t - 1]
        ot = o[..., t - 1]
        for i in range(t - 1, -1, -1):
            W[..., i + 1] += ot * W[..., i] * ((i + 1) / (t + 1))
            W[..., i] = zt * W[..., i] * ((t - i) / (t + 1))

    # UNWIND every slot at once (a trailing slot axis) and accumulate
    # (one-fractions are 0/1, so UNWIND's division by them is a no-op)
    is_one = o != 0.0
    zero_safe = np.where(z != 0.0, z, 1.0)
    next_one = np.repeat(W[..., D:], D, axis=-1)
    total = np.zeros((n, L, D))
    for i in range(D - 1, -1, -1):
        Wi = W[..., i:i + 1]
        tmp = next_one * ((D + 1) / (i + 1))
        next_one = np.where(is_one, Wi - tmp * z * ((D - i) / (D + 1)), next_one)
        total += np.where(is_one, tmp, Wi / (zero_safe * ((D - i) / (D + 1))))
    contrib = total * (o - z) * group.leaf_value[:, None]
    np.add.at(phi, (np.arange(n)[:, None, None], group.slot_feature), contrib)


class TreeShapExplainer:
    """SHAP tree explainer for one tree or an averaged ensemble.

    ``trees`` is a list of :class:`~repro.ml.tree.TreeArrays`; the model is
    assumed to predict the *mean* of the trees' outputs (a Random Forest).
    For a single tree pass a one-element list.
    """

    def __init__(self, trees: list[TreeArrays], num_features: int):
        if not trees:
            raise ValueError("need at least one tree")
        self.num_features = num_features
        self._groups = _build_groups(trees)
        self._num_trees = len(trees)
        #: E[f(x)] over the training distribution (paper Eq. 1 base value)
        self.expected_value = float(np.mean([t.value[0] for t in trees]))

    #: Byte bound on one group pass's (rows, L, D+1) weight-polynomial
    #: tensor.  A group of L leaves at depth D takes
    #: ``max(1, pass_bytes // (8·L·(D+1)))`` rows per pass: small enough to
    #: stay cache-friendly, large enough that the per-pass Python overhead
    #: is negligible against the vectorised arithmetic.
    pass_bytes = 512 * 1024

    def shap_values_single(self, x: np.ndarray) -> np.ndarray:
        """SHAP values (num_features,) for one sample: a batch of one."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape != (self.num_features,):
            raise ValueError(f"expected {self.num_features} features")
        get_tracer().counter("shap.single_rows")
        return self.shap_values(x[None])[0]

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """SHAP values (n, num_features) for a batch of samples."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(
                f"expected (n, {self.num_features}) samples, got {X.shape}"
            )
        n = X.shape[0]
        phi = np.zeros((n, self.num_features))
        passes = 0
        # groups outside, row chunks inside: each row accumulates the groups
        # in the same order whatever the chunk size
        for group in self._groups:
            row_bytes = 8 * len(group.leaf_value) * (group.depth + 1)
            step = max(1, self.pass_bytes // row_bytes)
            for start in range(0, n, step):
                _group_pass(group, X[start:start + step], phi[start:start + step])
                passes += 1
        tracer = get_tracer()
        tracer.counter("shap.chunks", passes)
        tracer.counter("shap.rows", n)
        phi /= self._num_trees
        return phi
