"""Binned CART decision-tree classifier.

The base learner underneath the Random Forest and RUSBoost models.  Split
search is histogram-based over pre-binned features
(:mod:`repro.ml.binning`) and runs through one **batched split kernel**:
:meth:`DecisionTreeClassifier.grow` advances several trees in lock-step,
builds the weighted histogram pair (totals and positives) of every node it
pops in one offset-``bincount``, and scans all of them in one
:func:`best_splits` call.  A node's histogram has one row per feature it
may split on, each only as wide as that feature's own bin count (a ragged
``(m, k, <= B)`` layout; the median feature of the paper's 387 has 6 bins,
the widest about 140).

* **Lock-step growth.** Each tree keeps its own depth-first stack.  A step
  pops the next preorder node of *every* tree and draws that node's
  feature subset from *that tree's* generator, so each generator sees
  exactly the call sequence of the tree grown alone, and node ids stay in
  preorder.  A single :meth:`~DecisionTreeClassifier.fit` (so each
  RUSBoost round) is a batch of one; the Random Forest passes groups of
  trees (:mod:`repro.ml.forest`).
* **Gather only what a split can use.** A node gathers its ``k = mtry``
  sampled feature rows (all ``F`` with ``max_features=None``) of the
  cached feature-major code matrix, over its ``live`` rows (non-zero
  weight) only; the class histogram bincounts only the live rows with a
  positive label.  Every omitted term is ``+0.0`` and a bin's rows keep
  their order, so every bin is bit-identical to a dense per-node build.
  The two-row split guard and the exact child sums (``cover``,
  ``value``) still run over the node's full ``indices``.
* **Score only cuts after occupied bins.** A cut after an empty bin has
  exactly the previous cut's sums (``x + 0.0 == x``), so it ties with its
  lower-index twin, which wins the first-wins tie-break; cuts before the
  first occupied bin leave the left side empty and a cut after the last
  one the right side.  :func:`best_splits` therefore scores only cuts
  right after an occupied bin, except each row's last, with prefix sums
  over the occupied bins alone (the same non-zero terms in the same
  order).  The gain arithmetic per scored cut is unchanged.

Telemetry counters, kept per fit in ``fit_stats_`` and emitted once per
fit: ``ml.hist.builds`` (node histograms), ``ml.hist.cells`` (code cells
gathered: feature rows × live rows), ``ml.hist.scan_cells`` (cuts scored),
``ml.hist.batches`` (kernel calls) and ``ml.tree.nodes``.

The fitted tree is stored as flat parallel arrays (the same layout
scikit-learn uses), which is exactly what the SHAP tree explainer needs:
``children_left/right``, ``feature``, ``threshold``, ``cover`` (weighted
sample count) and ``value`` (P(class 1)) per node.

Split convention: a sample goes **left iff x[feature] < threshold** (real
thresholds reconstructed from bin boundaries).

Supports what the Table II models use: the gini criterion, a node splits
when it holds at least two rows, per-node random feature subsets of
``sqrt(F)`` features (``max_features="sqrt"``, the Random Forest) or all
of them (``None``, RUSBoost), sample weights (bootstrap counts, boosting)
and depth/leaf limits.  A fit without a shared ``binned`` dataset bins
``X`` at :data:`~repro.ml.binning.MAX_BINS`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..runtime.telemetry import get_tracer
from .binning import BinMapper, BinnedDataset, as_binned_dataset

#: sentinel for "no child" / "not a split node"
LEAF = -1

#: Most code cells (feature rows × live rows) one ``bincount`` gathers.  A
#: cell costs about 18 bytes of temporaries (its uint8 code, an int64 bin
#: index and a float64 weight), so this caps a step's gather at a 1 MiB
#: budget however many nodes it builds (an RF root step of 16 trees gathers
#: about 450,000 cells); a step over the cap runs several ``bincount``
#: calls, which costs no measurable time.
_BINCOUNT_CELLS = (1 << 20) // 18

#: Leading prefix-sum columns :func:`best_splits` adds one at a time.
_PREFIX_COLUMNS = 16


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


def _impurity(pos: np.ndarray, tot: np.ndarray) -> np.ndarray:
    """Vector gini impurity of (pos, tot) weighted counts; 0 where tot == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tot > 0, pos / np.maximum(tot, 1e-300), 0.0)
    return 2.0 * p * (1.0 - p)


def best_splits(
    hist_tot: np.ndarray,
    hist_pos: np.ndarray,
    row_start: np.ndarray,
    k: int,
    w_tot: np.ndarray,
    w_pos: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The batched split kernel: the best cut of each of ``m`` nodes.

    The histograms are ragged: ``m * k`` rows (node-major, ``k`` feature
    rows per node), row ``i`` holding its feature's own bins at
    ``hist[row_start[i]:row_start[i + 1]]``, at least one bin wide (a dense
    ``(m, k, B)`` pair is the special case ``row_start = arange(m * k + 1) *
    B``).  ``w_tot`` and
    ``w_pos`` are the nodes' exact ``(m,)`` weight sums.  Returns ``(rows,
    cuts, n_scored)``: per node the histogram row (``0 <= row < k``) and
    bin cut of its best split (cut ``c`` puts codes ``<= c`` on the left),
    row ``-1`` for a leaf, and the number of cuts scored.  The caller maps
    a row back to its feature.

    Equal, cut for cut, to a dense scan of every ``(row, cut)`` with the
    same first-wins tie-break, but scores only cuts right after an occupied
    bin (not after a row's last one); see the module docstring.
    """
    R = len(row_start) - 1
    m = R // k
    rows = np.full(m, -1, dtype=np.int64)
    cuts = np.full(m, -1, dtype=np.int64)
    occupied = hist_tot != 0
    occupied |= hist_pos != 0
    cell = np.flatnonzero(occupied)  # (node, row, bin) order
    if not len(cell):
        return rows, cuts, 0
    n_occ = np.add.reduceat(occupied, row_start[:-1], dtype=np.int64)
    r = np.repeat(np.arange(R), n_occ)
    j = np.arange(len(cell)) - (np.cumsum(n_occ) - n_occ)[r]
    # Prefix sums over each row's occupied bins, left-justified and
    # zero-padded: the same non-zero terms, added in the same order as a
    # dense cumsum.  Laid out (column, row, tot|pos) with the rows ranked
    # by occupied-bin count, so column j is one vectorised add over just
    # the rows that score a cut there; the few rows wider than
    # _PREFIX_COLUMNS finish with one cumsum seeded by their last column.
    width = int(n_occ.max())
    rank = np.argsort(n_occ, kind="stable")
    slot = np.empty(R, dtype=np.int64)
    slot[rank] = np.arange(R)
    at = 2 * (j * R + slot[r])
    prefix = np.zeros(2 * width * R)
    prefix[at] = hist_tot[cell]
    prefix[at + 1] = hist_pos[cell]
    grid = prefix.reshape(width, 2 * R)
    # column j is needed by the rows with more than j + 1 occupied bins
    lo = 2 * np.searchsorted(n_occ[rank], np.arange(1, width + 1), side="right")
    for col in range(1, min(width - 1, _PREFIX_COLUMNS)):
        np.add(grid[col - 1, lo[col]:], grid[col, lo[col]:], out=grid[col, lo[col]:])
    if width - 1 > _PREFIX_COLUMNS:
        tail = grid[_PREFIX_COLUMNS - 1:, lo[_PREFIX_COLUMNS]:]
        np.cumsum(tail, axis=0, out=tail)
    scored = j < n_occ[r] - 1  # a cut after a row's last occupied bin is empty
    r, at = r[scored], at[scored]
    if not len(r):
        return rows, cuts, 0
    c = cell[scored] - row_start[r]
    n = len(r)
    node = r // k
    node_tot = w_tot[node]
    left_tot = prefix[at]
    right_tot = node_tot - left_tot
    # one impurity pass over [left | right | parent]
    imp = _impurity(
        np.concatenate((prefix[at + 1], w_pos[node] - prefix[at + 1], w_pos)),
        np.concatenate((left_tot, right_tot, w_tot)),
    )
    child_imp = (left_tot * imp[:n] + right_tot * imp[n:2 * n]) / node_tot
    gain = imp[2 * n:][node] - child_imp
    # feasibility: both sides honour min_samples_leaf (approximated in
    # weighted counts; exact for unit weights)
    feasible = (left_tot >= min_samples_leaf) & (right_tot >= min_samples_leaf)
    gain = np.where(feasible, gain, -np.inf)

    n_cells = np.bincount(node, minlength=m)
    has = n_cells > 0
    best = np.full(m, -np.inf)
    best[has] = np.maximum.reduceat(gain, (np.cumsum(n_cells) - n_cells)[has])
    splits = np.isfinite(best) & (best > 1e-12)
    # Deterministic tie-break: every cut within a hair of the best gain
    # counts as tied and the first (row-major) wins, so a last-ulp
    # difference between exactly tied cuts never decides a split.
    tol = 1e-9 * np.maximum(1.0, np.abs(best))
    tied = np.flatnonzero((gain >= (best - tol)[node]) & splits[node])
    if len(tied):
        tied_node = node[tied]
        first = np.ones(len(tied), dtype=bool)
        np.not_equal(tied_node[1:], tied_node[:-1], out=first[1:])
        first = tied[first]
        rows[node[first]] = r[first] % k
        cuts[node[first]] = c[first]
    return rows, cuts, len(gain)


class _NodeTask:
    """Work item of a tree's depth-first growth stack."""

    __slots__ = ("indices", "live", "depth", "parent", "is_left", "tot", "pos")

    def __init__(self, indices, live, depth, parent, is_left, tot, pos):
        self.indices = indices  # every row of the node, zero weights included
        self.live = live  # the rows with w != 0: all a histogram needs
        self.depth = depth
        self.parent = parent
        self.is_left = is_left
        self.tot = tot  # exact weighted sample count (never histogram-derived)
        self.pos = pos


class _Growth:
    """One tree under construction: its weights, generator, stack and
    growable node arrays."""

    __slots__ = ("w", "wy", "rng", "stack", "cl", "cr", "feat", "thr", "cover",
                 "value")

    def __init__(self, w: np.ndarray, wy: np.ndarray, rng: np.random.Generator):
        self.w = w
        self.wy = wy
        self.rng = rng
        root = np.arange(len(w), dtype=np.int64)
        self.stack = [_NodeTask(root, np.flatnonzero(w != 0), 0, -1, False,
                                float(w[root].sum()), float(wy[root].sum()))]
        self.cl: list[int] = []
        self.cr: list[int] = []
        self.feat: list[int] = []
        self.thr: list[float] = []
        self.cover: list[float] = []
        self.value: list[float] = []

    def add_node(self, task: _NodeTask) -> int:
        node_id = len(self.cl)
        self.cl.append(LEAF)
        self.cr.append(LEAF)
        self.feat.append(LEAF)
        self.thr.append(np.nan)
        self.cover.append(task.tot)
        self.value.append(task.pos / task.tot if task.tot > 0 else 0.0)
        if task.parent >= 0:
            (self.cl if task.is_left else self.cr)[task.parent] = node_id
        return node_id

    def split(self, task: _NodeTask, node_id: int, f: int, cut: int,
              codes_T: np.ndarray, mapper: BinMapper) -> None:
        """Record node ``node_id``'s split and push its children."""
        self.feat[node_id] = f
        self.thr[node_id] = mapper.threshold_value(f, cut)
        codes_f = codes_T[f]
        left_mask = codes_f[task.indices] <= cut
        left_idx = task.indices[left_mask]
        right_idx = task.indices[~left_mask]
        live_left = codes_f[task.live] <= cut
        # exact child stats from data over the full index sets (never
        # histogram-derived)
        w, wy = self.w, self.wy
        depth = task.depth + 1
        # push right first so the left child is materialised immediately
        # after its parent (sklearn-like preordering)
        self.stack.append(_NodeTask(right_idx, task.live[~live_left], depth, node_id,
                                    False, float(w[right_idx].sum()),
                                    float(wy[right_idx].sum())))
        self.stack.append(_NodeTask(left_idx, task.live[live_left], depth, node_id,
                                    True, float(w[left_idx].sum()),
                                    float(wy[left_idx].sum())))

    def arrays(self) -> TreeArrays:
        return TreeArrays(
            children_left=np.asarray(self.cl, dtype=np.int32),
            children_right=np.asarray(self.cr, dtype=np.int32),
            feature=np.asarray(self.feat, dtype=np.int32),
            threshold=np.asarray(self.thr, dtype=np.float64),
            cover=np.asarray(self.cover, dtype=np.float64),
            value=np.asarray(self.value, dtype=np.float64),
        )


def _histograms(
    batch: list, codes_T: np.ndarray, n_bins: np.ndarray, k: int, is_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The ragged histogram pair of a lock-step batch of nodes.

    ``batch`` holds ``(growth, task, node_id, allowed)`` per node: its
    tree, its live rows and its ``k`` feature rows (all of ``codes_T`` when
    ``allowed`` is None).  Row ``r = i * k + j`` of the result holds node
    ``i``'s bins of its ``j``-th feature at ``[row_start[r],
    row_start[r + 1])``.  One ``bincount`` per class fills every run of
    nodes whose gathered cells fit ``_BINCOUNT_CELLS``.  Returns
    ``(hist_tot, hist_pos, row_start, cells gathered)``.
    """
    m = len(batch)
    row_width = (np.tile(n_bins, m) if batch[0][3] is None else
                 n_bins[np.concatenate([allowed for *_, allowed in batch])])
    row_start = np.zeros(m * k + 1, dtype=np.int64)
    np.cumsum(row_width, out=row_start[1:])
    hist_tot = np.empty(row_start[-1])
    hist_pos = np.zeros(row_start[-1])
    i0 = n_cells = 0
    while i0 < m:
        i1, cells = i0, 0
        while i1 < m and (i1 == i0 or cells + k * len(batch[i1][1].live)
                          <= _BINCOUNT_CELLS):
            cells += k * len(batch[i1][1].live)
            i1 += 1
        base, end = row_start[i0 * k], row_start[i1 * k]
        # bin index (node, row, code) per gathered cell; a bin's rows keep
        # their order, so every bin sum is bit-identical to a per-node build
        flat = np.empty((k, cells // k), dtype=np.int64)
        w_live, lives = [], []
        s0 = 0
        for i in range(i0, i1):
            g, task, _, allowed = batch[i]
            rows = codes_T if allowed is None else codes_T.take(allowed, axis=0)
            s1 = s0 + len(task.live)
            np.add(rows.take(task.live, axis=1),
                   (row_start[i * k:(i + 1) * k] - base)[:, None],
                   out=flat[:, s0:s1])
            w_live.append(g.w[task.live])
            lives.append(task.live)
            s0 = s1
        w_cat = np.concatenate(w_live)
        hist_tot[base:end] = np.bincount(
            flat.ravel(), weights=np.broadcast_to(w_cat, flat.shape).ravel(),
            minlength=end - base,
        )
        # w * 1 == w for a positive live row; every other row adds +0.0
        pos = np.flatnonzero(is_pos[np.concatenate(lives)])
        if len(pos):
            flat_pos = flat[:, pos]
            hist_pos[base:end] = np.bincount(
                flat_pos.ravel(),
                weights=np.broadcast_to(w_cat[pos], flat_pos.shape).ravel(),
                minlength=end - base,
            )
        n_cells += cells
        i0 = i1
    return hist_tot, hist_pos, row_start, n_cells


#: per-fit counters, in ``fit_stats_`` order
FIT_COUNTERS = ("ml.hist.builds", "ml.hist.cells", "ml.hist.scan_cells",
                "ml.hist.batches", "ml.tree.nodes")


class DecisionTreeClassifier:
    """Gini CART for binary classification over binned features.

    Parameters mirror scikit-learn where they share names.  ``max_features``
    is ``"sqrt"`` (a random ``sqrt(F)`` features per node) or ``None`` (all).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: str | None = "sqrt",
        random_state: int | np.random.Generator | None = None,
    ):
        if max_features not in ("sqrt", None):
            raise ValueError(f"max_features must be 'sqrt' or None, not {max_features!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: TreeArrays | None = None
        self.fit_stats_: dict[str, int] = {}

    # -- sklearn-ish API ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree (a lock-step batch of one).

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
        dataset = as_binned_dataset(binned, X)
        if dataset.n_samples != len(y):
            raise ValueError("binned codes / y length mismatch")
        n = dataset.n_samples
        w = (
            np.ones(n, dtype=np.float64)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64).ravel()
        )
        if w.shape != (n,):
            raise ValueError("sample_weight shape mismatch")
        rng = (
            self.random_state
            if isinstance(self.random_state, np.random.Generator)
            else np.random.default_rng(self.random_state)
        )
        (self.tree_,), self.fit_stats_ = self.grow(dataset, y, [w], [rng])
        tracer = get_tracer()
        for name, v in self.fit_stats_.items():
            tracer.counter(name, v)
        return self

    def grow(
        self,
        dataset: BinnedDataset,
        y: np.ndarray,
        weights: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> tuple[list[TreeArrays], dict[str, int]]:
        """Grow one tree per ``(weights[i], rngs[i])`` in lock-step, with this
        estimator's parameters; returns the trees and the batch's counters.

        Each tree's output is a pure function of its own weights and
        generator: growing it here with other trees, or alone, gives the
        same arrays.  The caller bounds the batch size (memory grows with
        the trees in flight); the gathers are bounded here.
        """
        n, n_features = dataset.n_samples, dataset.n_features
        k = n_features if self.max_features is None else max(1, int(np.sqrt(n_features)))
        sampled = k < n_features
        codes_T = dataset.codes_T
        mapper = dataset.mapper
        n_bins = np.array([mapper.num_bins(f) for f in range(n_features)])
        can_split = dataset.n_bins_max >= 2
        is_pos = y == 1
        stats = dict.fromkeys(FIT_COUNTERS, 0)

        growths = []
        for w, rng in zip(weights, rngs):
            if not w.sum() > 0:
                raise ValueError("all sample weights are zero")
            # Normalise to mean weight 1 so min_samples_* thresholds (compared
            # against weighted counts) keep their "effective samples" meaning
            # regardless of the caller's weight scale (boosting uses ~1/n).
            # Zero-weight rows stay in the index sets: they count toward
            # the two-row split guard and the exact child sums.
            w = w * (n / w.sum())
            growths.append(_Growth(w, w * is_pos, rng))

        def may_split(n_rows: int, depth: int, tot: float, pos: float) -> bool:
            """Whether a node can possibly be split."""
            if not can_split or n_rows < 2:
                return False
            if self.max_depth is not None and depth >= self.max_depth:
                return False
            return 0.0 < pos < tot  # not pure

        active = growths
        while active:
            # pop the next preorder node of every tree; draw its feature
            # subset (sorted, so the first-wins tie-break follows global
            # feature order) from that tree's own generator
            batch = []
            for g in active:
                task = g.stack.pop()
                node_id = g.add_node(task)
                if may_split(len(task.indices), task.depth, task.tot, task.pos):
                    allowed = (np.sort(g.rng.choice(n_features, size=k, replace=False))
                               if sampled else None)
                    batch.append((g, task, node_id, allowed))
            if batch:
                hist_tot, hist_pos, row_start, n_cells = _histograms(
                    batch, codes_T, n_bins, k, is_pos
                )
                rows, cuts, n_scored = best_splits(
                    hist_tot, hist_pos, row_start, k,
                    np.array([task.tot for _, task, _, _ in batch]),
                    np.array([task.pos for _, task, _, _ in batch]),
                    self.min_samples_leaf,
                )
                stats["ml.hist.builds"] += len(batch)
                stats["ml.hist.cells"] += n_cells
                stats["ml.hist.batches"] += 1
                stats["ml.hist.scan_cells"] += n_scored
                for (g, task, node_id, allowed), row, cut in zip(batch, rows, cuts):
                    if row >= 0:
                        g.split(task, node_id,
                                int(row if allowed is None else allowed[row]),
                                int(cut), codes_T, mapper)
            active = [g for g in active if g.stack]

        trees = [g.arrays() for g in growths]
        stats["ml.tree.nodes"] = sum(t.node_count for t in trees)
        return trees, stats

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class probabilities."""
        if self.tree_ is None:
            raise RuntimeError("tree not fitted")
        p1 = self.tree_.predict_proba_positive(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int8)
