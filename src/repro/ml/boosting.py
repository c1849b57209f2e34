"""RUSBoost: random undersampling + AdaBoost (Seiffert et al. 2010).

The comparison model from the paper's [4] (Tabrizi et al., VLSI-DAT'17).
Each boosting round draws a *balanced* subsample — every minority (hotspot)
sample plus as many majority samples, drawn without replacement according
to the current boosting distribution — fits a shallow CART over all
features on it, and performs a standard discrete AdaBoost weight update
**on the full training set**.  The fitted trees are kept as their flat
:class:`~repro.ml.tree.TreeArrays` in ``trees``, one ``alphas_`` entry
each.

Scores are the usual weighted-vote margin mapped through a logistic link so
``predict_proba`` is well-behaved; ranking metrics (A_prc) only depend on
the margin ordering.
"""

from __future__ import annotations

import numpy as np

from .binning import BinnedDataset, as_binned_dataset
from .forest import ForestArrays
from .tree import DecisionTreeClassifier, TreeArrays


class RUSBoostClassifier:
    """Boosted shallow trees over balanced undersamples."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 8,
        learning_rate: float = 1.0,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.random_state = random_state
        self.trees: list[TreeArrays] = []
        self.alphas_: list[float] = []
        self._stacked: ForestArrays | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binned: BinnedDataset | None = None,
    ) -> "RUSBoostClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.int8).ravel()
        n = len(X)
        pos_idx = np.flatnonzero(y == 1)
        neg_idx = np.flatnonzero(y == 0)
        if len(pos_idx) == 0 or len(neg_idx) == 0:
            raise ValueError("RUSBoost needs both classes")
        rng = np.random.default_rng(self.random_state)
        dataset = as_binned_dataset(binned, X)
        if dataset.n_samples != n:
            raise ValueError("binned codes / y length mismatch")
        self._stacked = None
        # every round refits this tree from the one shared generator
        tree = DecisionTreeClassifier(max_depth=self.max_depth, max_features=None,
                                      random_state=rng)

        D = np.full(n, 1.0 / n)  # boosting distribution over the full set
        self.trees = []
        self.alphas_ = []
        for _ in range(self.n_estimators):
            # --- random undersampling according to D -------------------------
            n_neg_draw = min(len(pos_idx), len(neg_idx))
            p_neg = D[neg_idx] / D[neg_idx].sum()
            drawn_neg = rng.choice(neg_idx, size=n_neg_draw, replace=False, p=p_neg)
            sample_w = np.zeros(n)
            sample_w[pos_idx] = D[pos_idx]
            sample_w[drawn_neg] = D[drawn_neg]
            # re-balance classes inside the round
            wp, wn = sample_w[pos_idx].sum(), sample_w[drawn_neg].sum()
            if wn > 0:
                sample_w[drawn_neg] *= wp / wn
            tree.fit(None, y, sample_weight=sample_w, binned=dataset)

            # --- AdaBoost update on the FULL set ------------------------------
            pred = tree.predict(X)
            miss = pred != y
            err = float(D[miss].sum())
            err = min(max(err, 1e-10), 1 - 1e-10)
            if err >= 0.5:
                # Worse than chance on the weighted full set — with heavy
                # imbalance this happens when the balanced weak learner
                # over-predicts positives.  Standard remedy: discard the
                # round and restart the boosting distribution.
                D = np.full(n, 1.0 / n)
                continue
            alpha = self.learning_rate * 0.5 * np.log((1 - err) / err)
            D *= np.exp(alpha * np.where(miss, 1.0, -1.0))
            D /= D.sum()
            self.trees.append(tree.tree_)
            self.alphas_.append(float(alpha))

        if not self.trees:
            # Degenerate data (no round ever beat chance): fall back to a
            # single balanced tree so the model still ranks sensibly.
            w = np.zeros(n)
            w[pos_idx] = 0.5 / len(pos_idx)
            w[neg_idx] = 0.5 / len(neg_idx)
            tree.fit(None, y, sample_weight=w, binned=dataset)
            self.trees.append(tree.tree_)
            self.alphas_.append(1.0)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Normalised margin in [-1, 1].

        Uses the trees' probability estimates (Real-AdaBoost-style
        aggregation, 2p−1 per tree) rather than hard ±1 votes: the weight
        updates are classic discrete AdaBoost, but continuous leaf
        probabilities give the margin enough granularity to rank samples —
        essential for the threshold-free metrics (A_prc) the paper uses.
        """
        if not self.trees:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        leaf_p = self.stacked.leaf_values(X)  # (n, T) per-tree P(class 1)
        alphas = np.asarray(self.alphas_, dtype=np.float64)
        return (2.0 * leaf_p - 1.0) @ alphas / alphas.sum()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        margin = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-3.0 * margin))  # logistic link on the margin
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int8)

    @property
    def stacked(self) -> ForestArrays:
        """The fitted trees stacked for vectorized traversal (lazy, cached)."""
        if self._stacked is None:
            self._stacked = ForestArrays.from_trees(self.trees)
        return self._stacked

    def num_parameters(self) -> int:
        """Stored parameters: per-node tuple per tree plus one alpha each."""
        total = len(self.alphas_)
        for t in self.trees:
            internal = t.node_count - t.n_leaves
            total += 4 * internal + t.n_leaves
        return total
