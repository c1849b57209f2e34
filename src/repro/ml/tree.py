"""Binned CART decision-tree classifier.

The base learner underneath the Random Forest and RUSBoost models.  Split
search is histogram-based over pre-binned features
(:mod:`repro.ml.binning`): every node that may split scans one weighted
``(k, B)`` histogram pair (totals and positives), where ``B`` is the
*actual* widest bin count of the mapper — not a hardcoded 256 — so a node
costs O(n_live · k + k · B) instead of O(n_node log n_node · F).

A histogram covers only the cells a split can read:

* **mtry feature rows** — with ``max_features`` below ``F`` (the Random
  Forest), a node draws its sorted feature subset and gathers just those
  ``k = mtry`` rows of the cached feature-major ``(F, n)`` code matrix
  (shared by every tree grown from the same
  :class:`~repro.ml.binning.BinnedDataset`).  Such a node never carries or
  derives a histogram.
* **live rows** — every node keeps its full ``indices`` and the ``live``
  subset with non-zero weight, partitioned by the same ``code <= cut``
  test; histograms are built from ``live`` only.  A zero weight adds
  nothing to a bin, so the bins are bit-identical, while a bootstrap
  (about half the rows at ``max_samples=0.7``) or a RUSBoost undersample
  (most rows) shrinks the gather accordingly.  ``min_samples_split`` and
  the exact child sums still run over the full ``indices``.
* **sibling subtraction** — only with all ``F`` features
  (``max_features=None``, RUSBoost), where parent and children cover the
  same rows of the histogram: after a split, only the *smaller* child's
  histogram is built from data; the sibling's is derived as
  ``parent − small`` (exact for integer-valued weights such as bootstrap
  counts; for fractional weights each bin drifts by at most ~1 ulp of the
  parent sum, because parent and child accumulate their weights in
  different orders).  That drift can perturb *exactly tied* gains, so the
  split scan resolves ties with a tolerance: every cut within a hair of
  the best gain counts as tied and the first one wins, which makes
  subtraction-built trees bit-identical to direct-histogram trees.
  Subtraction is applied per node only where it is actually cheaper — the
  derived histogram costs O(F·B) while a direct build costs O(F·n_live),
  so children whose live-row counts differ little keep the direct path
  (the result is identical either way; the gate is purely a cost
  decision).

Telemetry counters ``ml.hist.builds``, ``ml.hist.subtractions``,
``ml.hist.cells`` (code cells gathered: feature rows × live rows, summed
over builds) and ``ml.tree.nodes`` (also kept per-fit in ``fit_stats_``)
let the run manifest show what the histograms cost.

The fitted tree is stored as flat parallel arrays (the same layout
scikit-learn uses), which is exactly what the SHAP tree explainer needs:
``children_left/right``, ``feature``, ``threshold``, ``cover`` (weighted
sample count) and ``value`` (P(class 1)) per node.

Split convention: a sample goes **left iff x[feature] < threshold** (real
thresholds reconstructed from bin boundaries).

Supports: gini or entropy criterion, per-node random feature subsets
(``max_features``), sample weights (for boosting), depth/leaf limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.telemetry import get_tracer
from .binning import BinMapper, BinnedDataset, as_binned_dataset

#: sentinel for "no child" / "not a split node"
LEAF = -1


@dataclass
class TreeArrays:
    """Flat array representation of a fitted decision tree."""

    children_left: np.ndarray  # int32, LEAF at leaves
    children_right: np.ndarray
    feature: np.ndarray  # int32, LEAF at leaves
    threshold: np.ndarray  # float64, NaN at leaves
    cover: np.ndarray  # float64 weighted sample count per node
    value: np.ndarray  # float64 P(class 1) per node

    @property
    def node_count(self) -> int:
        return len(self.children_left)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.children_left == LEAF))

    def max_depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=np.int32)
        for node in range(self.node_count):
            left, right = self.children_left[node], self.children_right[node]
            if left != LEAF:
                depth[left] = depth[node] + 1
                depth[right] = depth[node] + 1
        return int(depth.max()) if self.node_count else 0

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        """P(class 1) for each row of (unbinned) X."""
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(len(X), dtype=np.int64)
        active = self.children_left[nodes] != LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            go_left = X[idx, self.feature[cur]] < self.threshold[cur]
            nodes[idx] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            active[idx] = self.children_left[nodes[idx]] != LEAF
        return self.value[nodes]

    def decision_path_lengths(self, X: np.ndarray) -> np.ndarray:
        """Number of internal-node comparisons each sample traverses."""
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(len(X), dtype=np.int64)
        lengths = np.zeros(len(X), dtype=np.int64)
        active = self.children_left[nodes] != LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            lengths[idx] += 1
            go_left = X[idx, self.feature[cur]] < self.threshold[cur]
            nodes[idx] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            active[idx] = self.children_left[nodes[idx]] != LEAF
        return lengths


def _impurity(pos: np.ndarray, tot: np.ndarray, criterion: str) -> np.ndarray:
    """Vector impurity of (pos, tot) weighted counts; 0 where tot == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tot > 0, pos / np.maximum(tot, 1e-300), 0.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    # entropy (in nats)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(
            np.where(p > 0, p * np.log(p), 0.0)
            + np.where(p < 1, (1 - p) * np.log(1 - p), 0.0)
        )
    return h


class _NodeTask:
    """Work item of the depth-first growth stack."""

    __slots__ = ("indices", "live", "depth", "parent", "is_left", "tot", "pos",
                 "hist_tot", "hist_pos")

    def __init__(self, indices, live, depth, parent, is_left, tot, pos,
                 hist_tot=None, hist_pos=None):
        self.indices = indices  # every row of the node, zero weights included
        self.live = live  # the rows with w != 0: all a histogram needs
        self.depth = depth
        self.parent = parent
        self.is_left = is_left
        self.tot = tot  # exact weighted sample count (never histogram-derived)
        self.pos = pos
        self.hist_tot = hist_tot  # (F, B) carried by subtraction, else None
        self.hist_pos = hist_pos


class DecisionTreeClassifier:
    """CART for binary classification over binned features.

    Parameters mirror scikit-learn where they share names.  ``max_features``
    may be ``"sqrt"``, ``"log2"``, ``None`` (all), an int, or a float
    fraction.  ``hist_subtraction`` disables the sibling-subtraction trick
    (both children built from data) — the reference mode the equivalence
    property tests compare against.  It only matters when ``max_features``
    resolves to all features; sampled-feature trees never subtract.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | int | float | None = "sqrt",
        criterion: str = "gini",
        max_bins: int = 256,
        random_state: int | np.random.Generator | None = None,
        hist_subtraction: bool = True,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.criterion = criterion
        self.max_bins = max_bins
        self.random_state = random_state
        self.hist_subtraction = hist_subtraction
        self.tree_: TreeArrays | None = None
        self.fit_stats_: dict[str, int] = {}
        self._mapper: BinMapper | None = None

    # -- sklearn-ish API ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree.

        ``binned`` lets an ensemble share one :class:`BinnedDataset` across
        hundreds of trees instead of re-binning per tree; with it, ``X`` may
        be ``None`` — prediction uses real-valued thresholds, never the
        training matrix.
        """
        y = np.asarray(y).astype(np.int8).ravel()
        if X is not None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or len(X) != len(y):
                raise ValueError("bad X/y shapes")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        dataset = as_binned_dataset(binned, X, self.max_bins)
        if dataset.n_samples != len(y):
            raise ValueError("binned codes / y length mismatch")
        n, n_features = dataset.n_samples, dataset.n_features
        w = (
            np.ones(n, dtype=np.float64)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64).ravel()
        )
        if w.shape != (n,):
            raise ValueError("sample_weight shape mismatch")

        mapper = dataset.mapper
        self._mapper = mapper
        rng = (
            self.random_state
            if isinstance(self.random_state, np.random.Generator)
            else np.random.default_rng(self.random_state)
        )
        mtry = self._resolve_max_features(n_features)

        if not w.sum() > 0:
            raise ValueError("all sample weights are zero")
        # Normalise to mean weight 1 so min_samples_* thresholds (compared
        # against weighted counts) keep their "effective samples" meaning
        # regardless of the caller's weight scale (boosting uses ~1/n).
        # Zero-weight rows stay in the index sets: they count toward
        # min_samples_split and the exact child sums, exactly like the
        # pre-histogram implementation.  Histograms only gather the live
        # (w != 0) rows, since a zero weight adds nothing to any bin.
        w = w * (n / w.sum())
        wy = w * (y == 1)
        root_idx = np.arange(n, dtype=np.int64)

        codes_T = dataset.codes_T
        B = dataset.n_bins_max
        can_split = B >= 2
        sampled = mtry < n_features
        subtract = self.hist_subtraction and not sampled
        n_builds = n_subtractions = n_cells = 0
        offsets = np.arange(n_features, dtype=np.int64)[:, None] * B

        def build_hist(
            live: np.ndarray, allowed: np.ndarray | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
            """Weighted (k, B) histogram pair over ``live`` rows for the
            ``allowed`` feature rows (all F when None), one contiguous gather."""
            nonlocal n_builds, n_cells
            rows = codes_T if allowed is None else codes_T.take(allowed, axis=0)
            sub = rows.take(live, axis=1)  # (k, n_live), C-contiguous
            k = sub.shape[0]
            n_builds += 1
            n_cells += sub.size
            flat = (offsets[:k] + sub).ravel()
            h_tot = np.bincount(
                flat, weights=np.broadcast_to(w[live], sub.shape).ravel(),
                minlength=k * B,
            ).reshape(k, B)
            h_pos = np.bincount(
                flat, weights=np.broadcast_to(wy[live], sub.shape).ravel(),
                minlength=k * B,
            ).reshape(k, B)
            return h_tot, h_pos

        # growable node arrays
        cl: list[int] = []
        cr: list[int] = []
        feat: list[int] = []
        thr: list[float] = []
        cover: list[float] = []
        value: list[float] = []

        def new_node(tot: float, pos: float) -> int:
            node_id = len(cl)
            cl.append(LEAF)
            cr.append(LEAF)
            feat.append(LEAF)
            thr.append(np.nan)
            cover.append(tot)
            value.append(pos / tot if tot > 0 else 0.0)
            return node_id

        def may_split(n_child: int, depth: int, tot: float, pos: float) -> bool:
            """Whether a child node can possibly be split further."""
            if not can_split or n_child < self.min_samples_split:
                return False
            if self.max_depth is not None and depth >= self.max_depth:
                return False
            return 0.0 < pos < tot  # not pure

        root_tot = float(w[root_idx].sum())
        root_pos = float(wy[root_idx].sum())
        root_live = np.flatnonzero(w != 0)
        stack = [_NodeTask(root_idx, root_live, 0, -1, False, root_tot, root_pos)]
        while stack:
            task = stack.pop()
            node_id = new_node(task.tot, task.pos)
            if task.parent >= 0:
                if task.is_left:
                    cl[task.parent] = node_id
                else:
                    cr[task.parent] = node_id
            if not may_split(len(task.indices), task.depth, task.tot, task.pos):
                continue

            allowed = None
            if sampled:
                # the node's random feature subset, sorted so the scan's
                # first-wins tie-break follows global feature order
                # independent of the draw order; only those rows are gathered
                allowed = np.sort(rng.choice(n_features, size=mtry, replace=False))
                hist_tot, hist_pos = build_hist(task.live, allowed)
            elif task.hist_tot is None:
                hist_tot, hist_pos = build_hist(task.live)
            else:
                hist_tot, hist_pos = task.hist_tot, task.hist_pos
                task.hist_tot = task.hist_pos = None
            split = self._scan_histogram(hist_tot, hist_pos, task.tot, task.pos)
            if split is None:
                continue
            f, cut = split
            if allowed is not None:
                f = int(allowed[f])
            feat[node_id] = f
            thr[node_id] = mapper.threshold_value(f, cut)
            codes_f = codes_T[f]
            left_mask = codes_f[task.indices] <= cut
            left_idx = task.indices[left_mask]
            right_idx = task.indices[~left_mask]
            live_left = codes_f[task.live] <= cut
            # exact child stats from data over the full index sets (never
            # histogram-derived, so the stored cover/value and the stop
            # checks are identical with and without subtraction)
            l_tot = float(w[left_idx].sum())
            l_pos = float(wy[left_idx].sum())
            r_tot = float(w[right_idx].sum())
            r_pos = float(wy[right_idx].sum())

            left = _NodeTask(left_idx, task.live[live_left], task.depth + 1,
                             node_id, True, l_tot, l_pos)
            right = _NodeTask(right_idx, task.live[~live_left], task.depth + 1,
                              node_id, False, r_tot, r_pos)
            need_l = may_split(len(left_idx), left.depth, l_tot, l_pos)
            need_r = may_split(len(right_idx), right.depth, r_tot, r_pos)
            if subtract and (need_l or need_r):
                small, big = (
                    (left, right) if len(left.live) <= len(right.live) else (right, left)
                )
                need_small = need_l if small is left else need_r
                need_big = need_r if small is left else need_l
                # When the small child's histogram is needed anyway, deriving
                # the big sibling replaces a whole build with one cheap
                # (F, B) subtraction — always a win.  When the small build
                # would happen *only* to enable the subtraction, the win is
                # just the live-row difference between the children (the
                # gather cost), which must beat the subtraction's O(F·B)
                # cost (crossover is around B/8 rows: a bin-wise subtract
                # touches ~2·B cells per feature at a fraction of the
                # per-row gather+bincount cost).
                worth = need_small or (len(big.live) - len(small.live) >= B // 8)
                if need_big and worth:
                    small_tot, small_pos = build_hist(small.live)
                    # reuse the parent's arrays for the derived sibling
                    np.subtract(hist_tot, small_tot, out=hist_tot)
                    np.subtract(hist_pos, small_pos, out=hist_pos)
                    n_subtractions += 1
                    big.hist_tot, big.hist_pos = hist_tot, hist_pos
                    if need_small:
                        small.hist_tot, small.hist_pos = small_tot, small_pos
            # children without a carried histogram build one when popped;
            # push right first so the left child is materialised immediately
            # after its parent (purely cosmetic: sklearn-like preordering)
            stack.append(right)
            stack.append(left)

        self.tree_ = TreeArrays(
            children_left=np.asarray(cl, dtype=np.int32),
            children_right=np.asarray(cr, dtype=np.int32),
            feature=np.asarray(feat, dtype=np.int32),
            threshold=np.asarray(thr, dtype=np.float64),
            cover=np.asarray(cover, dtype=np.float64),
            value=np.asarray(value, dtype=np.float64),
        )
        self.fit_stats_ = {
            "ml.hist.builds": n_builds,
            "ml.hist.subtractions": n_subtractions,
            "ml.hist.cells": n_cells,
            "ml.tree.nodes": len(cl),
        }
        tracer = get_tracer()
        for name, v in self.fit_stats_.items():
            tracer.counter(name, v)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class probabilities."""
        if self.tree_ is None:
            raise RuntimeError("tree not fitted")
        p1 = self.tree_.predict_proba_positive(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int8)

    # -- internals -----------------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, float):
            return max(1, min(n_features, int(mf * n_features)))
        if isinstance(mf, int):
            return max(1, min(n_features, mf))
        raise ValueError(f"bad max_features {mf!r}")

    def _scan_histogram(
        self,
        hist_tot: np.ndarray,
        hist_pos: np.ndarray,
        w_tot: float,
        w_pos: float,
    ) -> tuple[int, int] | None:
        """Best (histogram row, bin cut) in a node's histogram, or None for a
        leaf.  The row indexes the histogram as gathered; the caller maps it
        back to a feature through the node's ``allowed`` subset.
        """
        B = hist_tot.shape[1]
        # prefix sums: splitting after bin c puts codes <= c on the left
        left_tot = np.cumsum(hist_tot, axis=1)[:, :-1]
        left_pos = np.cumsum(hist_pos, axis=1)[:, :-1]
        right_tot = w_tot - left_tot
        right_pos = w_pos - left_pos

        parent_imp = _impurity(
            np.array([w_pos]), np.array([w_tot]), self.criterion
        )[0]
        child_imp = (
            left_tot * _impurity(left_pos, left_tot, self.criterion)
            + right_tot * _impurity(right_pos, right_tot, self.criterion)
        ) / w_tot
        gain = parent_imp - child_imp

        # feasibility: both sides non-empty & honour min_samples_leaf
        # (approximated in weighted counts; exact for unit weights).  Cuts at
        # or past a narrow feature's last bin leave the right side empty and
        # are excluded here too.
        feasible = (left_tot >= self.min_samples_leaf) & (
            right_tot >= self.min_samples_leaf
        )
        gain = np.where(feasible, gain, -np.inf)
        best_gain = float(gain.max())
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None
        # Deterministic tie-break, immune to sibling-subtraction drift: a
        # derived (parent - small) histogram can carry ~1 ulp residue even in
        # bins that are exactly empty in the child (different summation
        # order), which would let a plain argmax pick different members of an
        # exactly-tied cut set than the direct build does.  Treat every cut
        # within a hair of the best gain as tied and take the first — both
        # modes see the same tie set because true gain gaps are either zero
        # or orders of magnitude wider than the drift.
        tol = 1e-9 * max(1.0, abs(best_gain))
        best_flat = int(np.argmax(gain.ravel() >= best_gain - tol))
        f, cut = divmod(best_flat, B - 1)
        return int(f), int(cut)
