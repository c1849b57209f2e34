"""Feature binning for fast histogram-based tree construction.

Exact CART split search sorts every feature at every node — O(n log n) per
feature per node.  Like modern gradient-boosting libraries, we instead
quantise each feature into at most 256 bins *once*, and every node split
search becomes a histogram scan.  With the small-integer and
piecewise-smooth features of this problem (counts, capacities, loads), 256
quantile bins lose essentially nothing: most features have far fewer
distinct values than bins.

The mapper records the candidate cut value of every bin boundary so the
final tree stores *real-valued* thresholds and can classify unbinned data.
Convention: a split at boundary ``b`` sends samples with ``x < b`` left,
matching ``code <= c  ⇔  x < edges[c]`` under ``code = searchsorted(edges,
x, side='right')``.

:class:`BinnedDataset` packages one fitted mapper with its uint8 code
matrix so a whole experiment split — every grid-search fold, every ensemble,
every tree — shares a single binning pass instead of each re-quantising the
float64 matrix.  ``fit`` sorts the matrix once (no per-feature
``np.unique``), ``transform`` runs one ``searchsorted`` per column, and both
feed the ``ml.binning.*`` telemetry counters that the run manifest uses to
prove the bin-once invariant.
"""

from __future__ import annotations

import numpy as np

from ..runtime.telemetry import get_tracer

MAX_BINS = 256


class BinMapper:
    """Learns per-feature quantile bin edges and encodes data to uint8."""

    def __init__(self, max_bins: int = MAX_BINS):
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None
        self._max_num_bins = 1

    def fit(self, X: np.ndarray) -> "BinMapper":
        """Choose up to ``max_bins - 1`` cut points per feature.

        One column-wise sort of the whole matrix replaces the per-feature
        ``np.unique`` passes: distinct counts come from adjacent-inequality
        flags on the sorted matrix, exact-bin columns read their distinct
        values straight off it, and all quantile-path columns share a single
        ``np.quantile(..., axis=0)`` call (duplicate quantiles are dropped
        with a diff mask, which on the already-sorted quantile vector is
        exactly what ``np.unique`` did).  A column holding NaN gets its cuts
        from its other values.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        get_tracer().counter("ml.binning.fits")
        self._set_edges(self._edges(X))
        return self

    def _edges(self, X: np.ndarray) -> list[np.ndarray]:
        n, n_features = X.shape
        edges: list[np.ndarray] = [np.empty(0)] * n_features
        if n == 0:
            return edges

        Xs = np.sort(X, axis=0)
        has_nan = np.isnan(Xs[-1])  # NaN sorts last
        neq = Xs[1:] != Xs[:-1] if n > 1 else np.zeros((0, n_features), bool)
        n_distinct = neq.sum(axis=0) + 1

        quantile_cols = []
        for j in range(n_features):
            if has_nan[j]:
                col = Xs[:, j]
                edges[j] = self._edges(col[~np.isnan(col), None])[0]
                continue
            if n_distinct[j] <= 1:
                continue
            if n_distinct[j] <= self.max_bins:
                first = np.empty(n, dtype=bool)
                first[0] = True
                first[1:] = neq[:, j]
                distinct = Xs[first, j]
                edges[j] = (distinct[:-1] + distinct[1:]) / 2.0
            else:
                quantile_cols.append(j)

        if quantile_cols:
            qs = np.linspace(0, 1, self.max_bins + 1)[1:-1]
            Q = np.quantile(X[:, quantile_cols], qs, axis=0)
            for k, j in enumerate(quantile_cols):
                cuts = Q[:, k]
                keep = np.empty(len(cuts), dtype=bool)
                keep[0] = True
                keep[1:] = np.diff(cuts) != 0
                edges[j] = cuts[keep]
        return edges

    def _set_edges(self, edges: list[np.ndarray]) -> None:
        self.edges_ = edges
        # cached: every tree fit reads the width, and walking all the edge
        # arrays per fit is measurable at the paper's 387 features
        self._max_num_bins = max((len(c) + 1 for c in edges), default=1)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Encode to uint8 codes; code c means edges[c-1] <= x < edges[c].

        One ``np.searchsorted(cuts, x, side="right")`` per column.  NaN sorts
        after every cut, so it gets the top code ``len(cuts)`` and trains on
        the right of every split, which is where prediction's ``x < thr``
        (False for NaN) sends it.
        """
        if self.edges_ is None:
            raise RuntimeError("BinMapper not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.edges_):
            raise ValueError("X feature count does not match the fitted mapper")
        get_tracer().counter("ml.binning.transforms")
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, cuts in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(cuts, X[:, j], side="right")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def num_bins(self, feature: int) -> int:
        if self.edges_ is None:
            raise RuntimeError("BinMapper not fitted")
        return len(self.edges_[feature]) + 1

    @property
    def max_num_bins(self) -> int:
        """Widest per-feature bin count — the histogram width trees need."""
        if self.edges_ is None:
            raise RuntimeError("BinMapper not fitted")
        return self._max_num_bins

    def threshold_value(self, feature: int, code: int) -> float:
        """Real-valued cut: samples with ``x < value`` have code <= ``code``."""
        if self.edges_ is None:
            raise RuntimeError("BinMapper not fitted")
        return float(self.edges_[feature][code])


class BinnedDataset:
    """One matrix binned once: a (mapper, uint8 codes) pair plus views.

    The unit every training path shares: ``grid_search`` row-slices it per
    fold with :meth:`take`, ensembles hand it to each tree, and the tree's
    per-node gathers run over the cached feature-major :attr:`codes_T`
    (computed lazily, once, and shared by the hundreds of trees grown from
    the same split).  Construction is the *only* place the float64 matrix
    is quantised — everything downstream is uint8.
    """

    def __init__(self, mapper: BinMapper, codes: np.ndarray):
        if mapper.edges_ is None:
            raise ValueError("mapper must be fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.dtype != np.uint8:
            raise ValueError("codes must be a 2-D uint8 matrix")
        if codes.shape[1] != len(mapper.edges_):
            raise ValueError("codes feature count does not match the mapper")
        self.mapper = mapper
        self.codes = codes
        self._codes_T: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, X: np.ndarray, max_bins: int = MAX_BINS) -> "BinnedDataset":
        """Fit-and-encode ``X`` — the one binning pass of a training split."""
        mapper = BinMapper(max_bins)
        return cls(mapper, mapper.fit_transform(X))

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    @property
    def codes_T(self) -> np.ndarray:
        """Feature-major ``(F, n)`` contiguous codes for per-node gathers."""
        if self._codes_T is None:
            self._codes_T = np.ascontiguousarray(self.codes.T)
        return self._codes_T

    @property
    def n_bins_max(self) -> int:
        """Histogram width: the widest feature's bin count."""
        return self.mapper.max_num_bins

    def take(self, rows: np.ndarray) -> "BinnedDataset":
        """A row subset sharing this dataset's mapper (no re-binning).

        This is what makes bin-once grid search possible: a CV fold's
        training subset is a uint8 row gather, not a fresh quantile pass.
        The fold therefore uses cut points learned on the full split matrix
        — the standard histogram-GBM approximation, documented in DESIGN.md.
        """
        return BinnedDataset(self.mapper, self.codes[np.asarray(rows)])


def as_binned_dataset(binned, X: np.ndarray | None) -> BinnedDataset:
    """Coerce an estimator's ``binned`` argument into a :class:`BinnedDataset`.

    Accepts a ready dataset, or ``None`` (bin ``X`` now — the
    standalone-estimator path).
    """
    if binned is None:
        if X is None:
            raise ValueError("either X or binned data must be provided")
        return BinnedDataset.from_matrix(X)
    if not isinstance(binned, BinnedDataset):
        raise TypeError(f"binned must be a BinnedDataset, got {type(binned).__name__}")
    return binned
