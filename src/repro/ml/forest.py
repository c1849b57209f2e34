"""Random Forest classifier (Breiman 2001) — the paper's model.

An ensemble of unpruned gini CART trees, each grown on a bootstrap
resample of the training set with a random ``sqrt(F)`` features per node,
predictions aggregated by averaging the trees' class probability estimates
(soft voting): scikit-learn's ``RandomForestClassifier`` defaults, which
the paper used, with no class weighting.

Implementation notes:

* all trees share one :class:`~repro.ml.binning.BinnedDataset` — callers
  that already binned the split (grid search, the experiment driver) pass
  it via ``fit(..., binned=...)`` and the forest never re-quantises;
* bootstrap is by sample *weights* (each tree's multinomial draw counts
  are its sample weights) so the binned codes never need reshuffling;
* trees grow in **lock-step** groups of at most ``TREES_IN_FLIGHT``
  (:meth:`~repro.ml.tree.DecisionTreeClassifier.grow`): each step pops the
  next preorder node of every tree in the group and scans all their
  histograms in one batched split kernel call, so kernel calls scale with
  tree depth and size, not with the forest's node count;
* every tree owns a seed spawned from the forest's root seed
  (``SeedSequence.spawn``) and draws its bootstrap, then its per-node
  feature subsets, from a generator built on *that*, so each tree is a
  pure function of ``(random_state, tree index)`` — the same whether grown
  in a group or alone, serially or in parallel;
* ``fit(..., runner=...)`` runs each group as one ``forest`` unit of a
  :class:`~repro.runtime.runner.FaultTolerantRunner` (inline or on its
  worker processes).  The grouping depends on the tree count only,
  so inline and runner fits run the same kernel batches and emit the same
  counters, and a unit carries seeds, never live generators, so a unit
  re-dispatched after its worker crashed regrows the same trees;
* the fitted trees are the flat :class:`~repro.ml.tree.TreeArrays` in
  ``trees`` (the SHAP explainer's input), stacked lazily into one padded
  :class:`ForestArrays` so ``predict_proba`` walks all trees of all
  samples in a single level-synchronous vectorized traversal instead of a
  Python loop.
"""

from __future__ import annotations

import numpy as np

from ..runtime.errors import StageFailure
from ..runtime.runner import FaultTolerantRunner
from ..runtime.telemetry import get_tracer
from .binning import BinnedDataset, as_binned_dataset
from .tree import FIT_COUNTERS, LEAF, DecisionTreeClassifier, TreeArrays


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
        # (right, left) pairs: a step is one gather at 2 * node + go_left
        self._child_flat = np.column_stack((self._cr_flat, self._cl_flat)).ravel()
        self._feat_flat = feature.ravel().astype(np.int64)
        self._thr_flat = threshold.ravel()
        self._val_flat = value.ravel()
        self._roots = base.ravel()
        self._depth_flat: np.ndarray | None = None  # lazy, for path lengths

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

    def leaf_values(self, X: np.ndarray, chunk_size: int = 256) -> np.ndarray:
        """Per-tree leaf value for every sample: ``(n, T)``.

        The building block shared by soft-voting forests (row mean) and
        weighted-vote boosting (row dot with the alphas).
        """
        return self._val_flat[self._leaves(X, chunk_size)]

    def decision_path_lengths(
        self, X: np.ndarray, chunk_size: int = 256
    ) -> np.ndarray:
        """Internal-node comparisons per sample and tree: ``(n, T)`` ints.

        The depth of the leaf each sample reaches, i.e. column ``t`` equals
        ``trees[t].decision_path_lengths(X)``, from the same single
        traversal as :meth:`leaf_values`.
        """
        if self._depth_flat is None:
            depth = np.zeros(len(self._cl_flat), dtype=np.int64)
            level, d = self._roots, 0
            while level.size:
                depth[level] = d
                level = level[self._cl_flat[level] != LEAF]
                level = np.concatenate((self._cl_flat[level], self._cr_flat[level]))
                d += 1
            self._depth_flat = depth
        return self._depth_flat[self._leaves(X, chunk_size)]

    def _leaves(self, X: np.ndarray, chunk_size: int) -> np.ndarray:
        """Absolute leaf id for every (sample, tree): ``(n, T)``.  Rows are
        chunked so the ``(chunk, T)`` work matrices stay cache-sized."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((len(X), self.n_trees), dtype=np.int64)
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
        alive = np.flatnonzero(self._cl_flat.take(nodes) != LEAF)
        while alive.size:
            cur = nodes.take(alive)
            go_left = (
                x_flat.take(row_off.take(alive) + self._feat_flat.take(cur))
                < self._thr_flat.take(cur)
            )
            nxt = self._child_flat.take(2 * cur + go_left)
            nodes[alive] = nxt
            alive = alive[self._cl_flat.take(nxt) != LEAF]
        return nodes.reshape(n, n_trees)

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote P(class 1): mean leaf value across trees."""
        return self.leaf_values(X).mean(axis=1)


# ---------------------------------------------------------------------------
# lock-step growth of one group of trees: a module-level function so a
# runner's worker processes can run it

#: Most trees grown in lock-step at once.  A step holds one node histogram
#: pair per tree in flight plus the split scan's temporaries, each at most
#: ``k × B`` float64: at the widest shape the engine meets (all 387 features
#: unsampled, 256 bins) that is 0.8 MB per array, so 16 trees bound a step's
#: histograms near 25 MB; an RF node (19 sampled features of about 20 bins)
#: needs about 3 KB per array.  Code gathers are capped separately, per
#: ``bincount`` (``tree._BINCOUNT_CELLS``).
TREES_IN_FLIGHT = 16


def _tree_groups(n_trees: int) -> list[range]:
    """Consecutive, near-equal groups of at most ``TREES_IN_FLIGHT`` trees.

    The grouping depends on the tree count only, never on the runner: a
    group is one lock-step pass and one runner unit, so inline and pool
    fits run the same batches.
    """
    n_groups = -(-n_trees // TREES_IN_FLIGHT)
    bounds = [n_trees * i // n_groups for i in range(n_groups + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _grow_group(
    seeds: list[np.random.SeedSequence],
    template: DecisionTreeClassifier,
    dataset: BinnedDataset,
    y: np.ndarray,
    n_draw: int,
) -> tuple[list[TreeArrays], dict[str, int]]:
    """Grow one group of trees in lock-step, each from its own seed.

    Each tree's generator is built *here* from its seed, and its bootstrap
    multinomial is drawn from that generator before its feature draws —
    never from a shared stream — which is what makes the forest's output a
    pure function of (random_state, tree index) regardless of grouping,
    scheduling or re-dispatch after a worker crash.
    """
    n = dataset.n_samples
    rngs = [np.random.default_rng(seed) for seed in seeds]
    weights = [rng.multinomial(n_draw, np.full(n, 1.0 / n)).astype(np.float64)
               for rng in rngs]
    return template.grow(dataset, y, weights, rngs)


class RandomForestClassifier:
    """Bagged ensemble of binned CART trees for binary classification."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_samples: float | None = None,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_samples = max_samples
        self.random_state = random_state
        #: the fitted trees' flat arrays (input to the SHAP tree explainer)
        self.trees: list[TreeArrays] = []
        self.fit_stats_: dict[str, int] = {}
        self._stacked: ForestArrays | None = None

    # -- API ---------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        binned: BinnedDataset | None = None,
        *,
        runner: FaultTolerantRunner | None = None,
    ) -> "RandomForestClassifier":
        """Grow the forest; ``runner`` runs each lock-step group as one
        ``forest`` unit, ``None`` grows every group inline.  Raises
        :class:`~repro.runtime.errors.StageFailure` if a unit fails."""
        y = np.asarray(y).astype(np.int8).ravel()
        dataset = as_binned_dataset(binned, X)
        if dataset.n_samples != len(y):
            raise ValueError("binned codes / y length mismatch")
        n = dataset.n_samples
        n_draw = n if self.max_samples is None else max(1, int(self.max_samples * n))
        template = DecisionTreeClassifier(
            max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
        )
        seeds = np.random.SeedSequence(self.random_state).spawn(self.n_estimators)
        groups = _tree_groups(self.n_estimators)
        payload = (template, dataset, y, n_draw)

        self._stacked = None
        if runner is None:
            results = [_grow_group(seeds[g.start:g.stop], *payload) for g in groups]
        else:
            outcomes = runner.run_units("forest", [
                (f"trees{g.start}-{g.stop - 1}", _grow_group,
                 (seeds[g.start:g.stop], *payload), {})
                for g in groups
            ])
            for o in outcomes:
                if o.failure is not None:
                    f = o.failure
                    raise StageFailure(f.stage, f.unit, f.message)
            results = [o.value for o in outcomes]
        self.trees = [tree for trees, _ in results for tree in trees]
        self.fit_stats_ = dict.fromkeys(FIT_COUNTERS, 0)
        for _, stats in results:
            for name, v in stats.items():
                self.fit_stats_[name] += v
        # once per fit, from the returned stats: units emit no counters, so
        # inline and pool fits emit identical counter totals
        tracer = get_tracer()
        for name, v in self.fit_stats_.items():
            tracer.counter(name, v)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
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
