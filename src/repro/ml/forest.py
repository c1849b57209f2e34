"""Random Forest classifier (Breiman 2001) — the paper's model.

An ensemble of unpruned CART trees, each grown on a bootstrap resample of
the training set with per-node random feature subsets (``max_features =
sqrt`` by default), predictions aggregated by averaging the trees' class
probability estimates (soft voting, matching scikit-learn's
``RandomForestClassifier`` which the paper used).

Implementation notes:

* all trees share one :class:`~repro.ml.binning.BinnedDataset` — callers
  that already binned the split (grid search, the experiment driver) pass
  it via ``fit(..., binned=...)`` and the forest never re-quantises;
* bootstrap is by sample *weights* (a multinomial draw folded into each
  tree's sample_weight vector) so the binned codes never need reshuffling;
* ``n_jobs`` grows trees in a process pool.  Every tree owns a generator
  pre-spawned from the forest's root generator (``rng.spawn``) and draws
  its bootstrap from *that*, so the random stream per tree is a pure
  function of ``(random_state, tree index)`` — serial and parallel fits
  are bit-identical, and a fixed seed gives the same forest at any worker
  count.  Inside an already-parallel flow worker (``--jobs``) the pool is
  skipped entirely to avoid oversubscription;
* fitted trees are stacked into one padded :class:`ForestArrays` so
  ``predict_proba`` walks all trees of all samples in a single
  level-synchronous vectorized traversal instead of a Python loop;
* ``class_weight="balanced"`` mirrors sklearn: positives are up-weighted by
  ``n / (2 · n_pos)`` — with hotspot rates of a few percent this matters.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..runtime.telemetry import get_tracer
from .binning import BinnedDataset, as_binned_dataset
from .tree import LEAF, DecisionTreeClassifier, TreeArrays


class ForestArrays:
    """An ensemble's trees stacked into padded ``(T, N)`` arrays.

    ``N`` is the widest tree's node count; shorter trees are padded with
    ``LEAF`` children (pad nodes are unreachable — traversal starts at node
    0 and only follows real child pointers).  One level-synchronous pass
    advances every still-internal ``(sample, tree)`` pair at once, turning
    forest prediction into a handful of fancy-indexing kernels per tree
    depth instead of ``T`` separate Python-level traversals.
    """

    def __init__(
        self,
        children_left: np.ndarray,
        children_right: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
        value: np.ndarray,
    ):
        self.children_left = children_left
        self.children_right = children_right
        self.feature = feature
        self.threshold = threshold
        self.value = value
        # flat mirror with *absolute* node ids (tree * width + local):
        # traversal then needs no per-pair tree index — every step is a 1-D
        # gather, roughly halving the per-element cost of the hot loop
        n_trees, width = children_left.shape
        base = (np.arange(n_trees, dtype=np.int64) * width)[:, None]
        self._cl_flat = np.where(
            children_left != LEAF, children_left + base, LEAF
        ).ravel()
        self._cr_flat = np.where(
            children_right != LEAF, children_right + base, LEAF
        ).ravel()
        self._feat_flat = feature.ravel().astype(np.int64)
        self._thr_flat = threshold.ravel()
        self._val_flat = value.ravel()
        self._roots = base.ravel()

    @classmethod
    def from_trees(cls, trees: list[TreeArrays]) -> "ForestArrays":
        if not trees:
            raise ValueError("need at least one tree")
        n_trees = len(trees)
        width = max(t.node_count for t in trees)
        cl = np.full((n_trees, width), LEAF, dtype=np.int32)
        cr = np.full((n_trees, width), LEAF, dtype=np.int32)
        feat = np.full((n_trees, width), LEAF, dtype=np.int32)
        thr = np.full((n_trees, width), np.nan, dtype=np.float64)
        val = np.zeros((n_trees, width), dtype=np.float64)
        for t, tree in enumerate(trees):
            m = tree.node_count
            cl[t, :m] = tree.children_left
            cr[t, :m] = tree.children_right
            feat[t, :m] = tree.feature
            thr[t, :m] = tree.threshold
            val[t, :m] = tree.value
        return cls(cl, cr, feat, thr, val)

    @property
    def n_trees(self) -> int:
        return self.children_left.shape[0]

    @property
    def max_nodes(self) -> int:
        return self.children_left.shape[1]

    def leaf_values(self, X: np.ndarray, chunk_size: int = 2048) -> np.ndarray:
        """Per-tree leaf value for every sample: ``(n, T)``.

        The building block shared by soft-voting forests (row mean) and
        weighted-vote boosting (row dot with the alphas).  Rows are chunked
        so the ``(chunk, T)`` work matrices stay cache-sized.
        """
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), self.n_trees), dtype=np.float64)
        for start in range(0, len(X), chunk_size):
            stop = min(start + chunk_size, len(X))
            out[start:stop] = self._traverse(X[start:stop])
        return out

    def _traverse(self, X: np.ndarray) -> np.ndarray:
        n, n_trees = len(X), self.n_trees
        n_features = X.shape[1]
        x_flat = np.ascontiguousarray(X).ravel()
        # flattened (sample, tree) pairs holding absolute node ids; the
        # frontier shrinks as pairs reach leaves so each level costs
        # O(still-active), and one level advances every tree at once
        # (~max_depth numpy dispatches total, versus n_trees * max_depth
        # for a per-tree loop)
        nodes = np.tile(self._roots, n)
        row_off = np.repeat(np.arange(n, dtype=np.int64) * n_features, n_trees)
        alive = np.flatnonzero(self._cl_flat[nodes] != LEAF)
        while alive.size:
            cur = nodes[alive]
            go_left = (
                x_flat[row_off[alive] + self._feat_flat[cur]]
                < self._thr_flat[cur]
            )
            nxt = np.where(go_left, self._cl_flat[cur], self._cr_flat[cur])
            nodes[alive] = nxt
            alive = alive[self._cl_flat[nxt] != LEAF]
        return self._val_flat[nodes].reshape(n, n_trees)

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote P(class 1): mean leaf value across trees."""
        return self.leaf_values(X).mean(axis=1)


# ---------------------------------------------------------------------------
# per-tree growth: a module-level function (and a fork-friendly payload
# global) so the process pool can run it


def _grow_tree(
    rng: np.random.Generator,
    params: dict,
    dataset: BinnedDataset,
    y: np.ndarray,
    base_w: np.ndarray,
    n_draw: int,
    bootstrap: bool,
) -> DecisionTreeClassifier:
    """Grow one tree from its own pre-spawned generator.

    The bootstrap multinomial is drawn *here*, from the tree's generator —
    never from a shared stream — which is what makes the forest's output a
    pure function of (random_state, tree index) regardless of scheduling.
    """
    tree = DecisionTreeClassifier(random_state=rng, **params)
    if bootstrap:
        n = dataset.n_samples
        counts = rng.multinomial(n_draw, np.full(n, 1.0 / n))
        w = base_w * counts
    else:
        w = base_w
    tree.fit(None, y, sample_weight=w, binned=dataset)
    return tree


_WORKER_PAYLOAD: tuple | None = None


def _init_worker(payload: tuple) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _grow_tree_worker(rng: np.random.Generator) -> tuple[TreeArrays, dict]:
    assert _WORKER_PAYLOAD is not None
    tree = _grow_tree(rng, *_WORKER_PAYLOAD)
    assert tree.tree_ is not None
    return tree.tree_, tree.fit_stats_


class RandomForestClassifier:
    """Bagged ensemble of binned CART trees for binary classification."""

    #: grid search / experiment drivers may pass a shared BinnedDataset
    accepts_binned = True

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | int | float | None = "sqrt",
        criterion: str = "gini",
        bootstrap: bool = True,
        max_samples: float | None = None,
        class_weight: str | None = None,
        max_bins: int = 256,
        random_state: int | None = None,
        n_jobs: int | None = 1,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        if n_jobs is not None and n_jobs == 0:
            raise ValueError("n_jobs must be a positive int, -1, or None")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.max_samples = max_samples
        self.class_weight = class_weight
        self.max_bins = max_bins
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.estimators_: list[DecisionTreeClassifier] = []
        self.base_rate_: float | None = None
        self._stacked: ForestArrays | None = None

    # -- API ---------------------------------------------------------------------

    def _effective_jobs(self) -> int:
        """Worker count for this fit: 1 unless parallelism is safe and useful."""
        if self.n_jobs in (None, 1):
            return 1
        # Inside a runner pool worker (--jobs) the CPUs are already claimed by
        # the outer pool — nested pools would oversubscribe, so grow serially.
        if multiprocessing.parent_process() is not None:
            return 1
        jobs = self.n_jobs if self.n_jobs > 0 else (os.cpu_count() or 1)
        return max(1, min(jobs, self.n_estimators))

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "RandomForestClassifier":
        y = np.asarray(y).astype(np.int8).ravel()
        dataset = as_binned_dataset(binned, X, self.max_bins)
        if dataset.n_samples != len(y):
            raise ValueError("binned codes / y length mismatch")
        n = dataset.n_samples

        base_w = (
            np.ones(n) if sample_weight is None else np.asarray(sample_weight, float)
        )
        if self.class_weight == "balanced":
            pos = max(int(y.sum()), 1)
            neg = max(n - pos, 1)
            cw = np.where(y == 1, n / (2.0 * pos), n / (2.0 * neg))
            base_w = base_w * cw

        n_draw = n if self.max_samples is None else max(1, int(self.max_samples * n))
        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            criterion=self.criterion,
            max_bins=self.max_bins,
        )
        rng = np.random.default_rng(self.random_state)
        tree_rngs = rng.spawn(self.n_estimators)
        jobs = self._effective_jobs()

        self._stacked = None
        if jobs == 1:
            self.estimators_ = [
                _grow_tree(r, params, dataset, y, base_w, n_draw, self.bootstrap)
                for r in tree_rngs
            ]
        else:
            payload = (params, dataset, y, base_w, n_draw, self.bootstrap)
            chunk = -(-self.n_estimators // jobs)  # ceil: one batch per worker
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(payload,)
            ) as pool:
                results = list(pool.map(_grow_tree_worker, tree_rngs, chunksize=chunk))
            # Workers emit telemetry into their own (discarded) process; the
            # parent re-emits the per-tree stats so serial and parallel fits
            # produce identical counter totals in the run manifest.
            tracer = get_tracer()
            self.estimators_ = []
            for arrays, stats in results:
                est = DecisionTreeClassifier(random_state=None, **params)
                est.tree_ = arrays
                est.fit_stats_ = stats
                est._mapper = dataset.mapper
                self.estimators_.append(est)
                for name, v in stats.items():
                    tracer.counter(name, v)
        self.base_rate_ = float(np.average(y, weights=base_w))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("forest not fitted")
        p1 = self.stacked.predict_proba_positive(np.asarray(X, dtype=np.float64))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int8)

    # -- introspection ----------------------------------------------------------------

    @property
    def stacked(self) -> ForestArrays:
        """The fitted trees stacked for vectorized prediction (lazy, cached)."""
        if self._stacked is None:
            self._stacked = ForestArrays.from_trees(self.trees)
        return self._stacked

    @property
    def trees(self) -> list[TreeArrays]:
        """The fitted trees' flat arrays (input to the SHAP tree explainer)."""
        out = []
        for est in self.estimators_:
            if est.tree_ is None:
                raise RuntimeError("forest not fitted")
            out.append(est.tree_)
        return out

    def num_parameters(self) -> int:
        """Total stored parameters, counted like the paper's Table II.

        Each internal node stores (feature id, threshold, 2 child pointers);
        each leaf stores one value.
        """
        total = 0
        for t in self.trees:
            internal = t.node_count - t.n_leaves
            total += 4 * internal + t.n_leaves
        return total

    def feature_importances(self) -> np.ndarray:
        """Mean cover-weighted split frequency per feature.

        A light-weight global importance (split-count weighted by node
        cover); the per-sample SHAP values are the paper's preferred
        attribution, this is only for quick sanity checks.
        """
        if not self.estimators_:
            raise RuntimeError("forest not fitted")
        n_features = 0
        for t in self.trees:
            internal = t.feature[t.feature >= 0]
            if internal.size:
                n_features = max(n_features, int(internal.max()) + 1)
        imp = np.zeros(max(n_features, 1))
        for t in self.trees:
            mask = t.feature >= 0
            np.add.at(imp, t.feature[mask], t.cover[mask])
        s = imp.sum()
        return imp / s if s > 0 else imp
