"""Model-complexity accounting: #parameters and #prediction operations.

The paper's Table II reports, besides predictive quality, two complexity
numbers per model:

* ``# Model param.`` — stored parameters per trained model;
* ``# Prediction op.`` — arithmetic operations to score **one sample**.

These are defined per model family (Sec. III-B "number of predictive
operations for model complexity"):

* **trees/forests/boosting** — one comparison per internal node on the
  sample's root-to-leaf path, summed over trees, plus the aggregation;
  path lengths are *measured* on a reference batch, since unpruned trees
  are far shallower on average than their worst case;
* **SVM-RBF** — per support vector: a squared-distance over all features
  (2F ops) plus the kernel exponential and the weighted accumulation;
* **MLP** — two ops (multiply + add) per weight, plus activation costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boosting import RUSBoostClassifier
from .forest import ForestArrays, RandomForestClassifier
from .nn import MLPClassifier
from .svm import SVMClassifier


@dataclass(frozen=True, slots=True)
class ComplexityReport:
    """The two Table II complexity numbers, with provenance."""

    model_name: str
    num_parameters: int
    prediction_ops_per_sample: float

    def format_row(self) -> str:
        return (
            f"{self.model_name:<10s} {self.num_parameters / 1000.0:>10.1f}k params "
            f"{self.prediction_ops_per_sample / 1000.0:>10.1f}k ops/sample"
        )


def _tree_ensemble_ops(
    stacked: ForestArrays, X_ref: np.ndarray, per_tree_extra: float
) -> float:
    """Mean comparisons per sample across an ensemble + aggregation cost.

    Path lengths come from one stacked traversal of all trees; per tree
    they are integers, so each tree's mean is the same float as a per-tree
    walk gives, and the totals add up in tree order as before.
    """
    total = 0.0
    for mean in stacked.decision_path_lengths(X_ref).mean(axis=0):
        total += float(mean)
        total += per_tree_extra
    return total


def forest_complexity(
    model: RandomForestClassifier, X_ref: np.ndarray, name: str = "RF"
) -> ComplexityReport:
    ops = _tree_ensemble_ops(model.stacked, X_ref, per_tree_extra=1.0)  # +1 add
    ops += 1.0  # final divide
    return ComplexityReport(name, model.num_parameters(), ops)


def rusboost_complexity(
    model: RUSBoostClassifier, X_ref: np.ndarray, name: str = "RUSBoost"
) -> ComplexityReport:
    # per tree: path comparisons + multiply by alpha + add
    ops = _tree_ensemble_ops(model.stacked, X_ref, per_tree_extra=2.0)
    ops += 1.0
    return ComplexityReport(name, model.num_parameters(), ops)


def svm_complexity(model: SVMClassifier, name: str = "SVM-RBF") -> ComplexityReport:
    if model.support_vectors_ is None:
        raise RuntimeError("SVM not fitted")
    n_sv, n_features = model.support_vectors_.shape
    # per SV: (sub, mul, add) per feature for ||x - sv||^2 -> 3F, one exp
    # (~20 flops), one multiply-accumulate with the dual coef
    ops = n_sv * (3.0 * n_features + 22.0) + 1.0
    return ComplexityReport(name, model.num_parameters(), ops)


def mlp_complexity(model: MLPClassifier, name: str = "NN") -> ComplexityReport:
    params = model.num_parameters()
    # 2 ops per weight (MAC), ~1 op per activation
    act_units = sum(W.shape[1] for W in model.weights_)
    ops = 2.0 * sum(W.size for W in model.weights_) + sum(
        b.size for b in model.biases_
    ) + act_units
    return ComplexityReport(name, params, ops)


def complexity_of(model, X_ref: np.ndarray, name: str) -> ComplexityReport:
    """Dispatch on model type (used by the Table II harness)."""
    if isinstance(model, RandomForestClassifier):
        return forest_complexity(model, X_ref, name)
    if isinstance(model, RUSBoostClassifier):
        return rusboost_complexity(model, X_ref, name)
    if isinstance(model, SVMClassifier):
        return svm_complexity(model, name)
    if isinstance(model, MLPClassifier):
        return mlp_complexity(model, name)
    raise TypeError(f"no complexity model for {type(model).__name__}")
