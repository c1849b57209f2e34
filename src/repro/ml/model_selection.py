"""Design-grouped cross-validation and grid search.

The paper's protocol (Sec. II) splits by *design group*, never by sample:

* testing on a design excludes its whole group from training;
* hyper-parameters are chosen by 4-fold CV over the 4 training groups,
  holding out one whole group per fold;
* the selected configuration is re-fitted on all 4 training groups.

:class:`GroupKFold` and :func:`grid_search` implement exactly that.  The CV
scoring metric defaults to average precision (A_prc), the paper's tuning
metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from .binning import BinnedDataset
from .metrics import average_precision
from .svm import KernelCache


class FittableClassifier(Protocol):
    """Minimal estimator protocol the search utilities rely on."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FittableClassifier": ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...


class GroupKFold:
    """Leave-one-group-out splitting over integer group labels."""

    def split(
        self, groups: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """(train_idx, val_idx, held_out_group) per distinct group."""
        groups = np.asarray(groups).ravel()
        out = []
        for g in np.unique(groups):
            val = np.flatnonzero(groups == g)
            train = np.flatnonzero(groups != g)
            out.append((train, val, int(g)))
        return out


def positive_scores(model: FittableClassifier, X: np.ndarray) -> np.ndarray:
    """Column 1 of ``model.predict_proba(X)``: P(hotspot) per row."""
    proba = model.predict_proba(X)
    return np.asarray(proba)[:, 1]


@dataclass
class GridSearchResult:
    """Outcome of one grid search."""

    best_params: dict[str, Any]
    best_score: float
    #: every evaluated configuration: (params, mean score, per-fold scores)
    table: list[tuple[dict[str, Any], float, list[float]]] = field(
        default_factory=list
    )

    def format_table(self) -> str:
        lines = ["params -> mean CV A_prc (per fold)"]
        for params, mean, folds in self.table:
            folds_s = ", ".join(f"{v:.4f}" for v in folds)
            marker = " *" if params == self.best_params else ""
            lines.append(f"  {params} -> {mean:.4f} ({folds_s}){marker}")
        return "\n".join(lines)


def iterate_grid(param_grid: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """All combinations of a sklearn-style parameter grid, in stable order."""
    if not param_grid:
        return [{}]
    keys = sorted(param_grid)
    combos = itertools.product(*(param_grid[k] for k in keys))
    return [dict(zip(keys, values)) for values in combos]


def grid_search(
    model_factory: Callable[..., FittableClassifier],
    param_grid: dict[str, list[Any]],
    X: np.ndarray,
    y: np.ndarray,
    groups: np.ndarray,
    scorer: Callable[[np.ndarray, np.ndarray], float] = average_precision,
    binned: BinnedDataset | None = None,
) -> GridSearchResult:
    """Grouped-CV grid search, scored on held-out groups.

    Every configuration is fitted once per fold (a fold = one training
    group held out entirely, as in the paper).  Folds whose held-out part
    has no positive samples are skipped for scoring (the metric would be
    undefined), matching how the paper handles its zero-hotspot designs.

    ``binned`` is the experiment split's shared
    :class:`~repro.ml.binning.BinnedDataset` over exactly the rows of
    ``X``, passed only for models that train on binned codes: every fit
    receives its CV fold as a uint8 row slice (``binned.take(train_idx)``),
    so the whole search performs zero re-quantisations.  Fold cut points
    are therefore the ones learned on the full split matrix — the standard
    histogram-GBM approximation.  The loop is fold-major, so a fold's grid
    points also share one :class:`~repro.ml.svm.KernelCache` (estimators
    that advertise ``accepts_kernel_cache``); both die with the fold.
    """
    if binned is not None and binned.n_samples != len(X):
        raise ValueError("binned dataset does not cover the rows of X")
    grid = iterate_grid(param_grid)
    fold_scores: list[list[float]] = [[] for _ in grid]
    for train_idx, val_idx, _ in GroupKFold().split(groups):
        y_val = y[val_idx]
        if y_val.sum() == 0 or y_val.sum() == len(y_val):
            continue
        X_fit, y_fit, X_val = X[train_idx], y[train_idx], X[val_idx]
        kernel_cache = KernelCache()
        kwargs: dict[str, Any] = {}
        if binned is not None:
            kwargs["binned"] = binned.take(train_idx)
        for scores, params in zip(fold_scores, grid):
            model = model_factory(**params)
            if getattr(model, "accepts_kernel_cache", False):
                kwargs["kernel_cache"] = kernel_cache
            model.fit(X_fit, y_fit, **kwargs)
            scores.append(float(scorer(y_val, positive_scores(model, X_val))))
    table = [
        (params, float(np.mean(scores)) if scores else float("-inf"), scores)
        for params, scores in zip(grid, fold_scores)
    ]

    best_params, best_score, _ = max(table, key=lambda t: t[1])
    return GridSearchResult(
        best_params=best_params,
        best_score=best_score,
        table=table,
    )
