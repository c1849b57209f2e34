"""From-scratch ML substrate: estimators, metrics, selection, SHAP."""

from .binning import BinMapper, BinnedDataset, as_binned_dataset
from .boosting import RUSBoostClassifier
from .complexity import (
    ComplexityReport,
    complexity_of,
    forest_complexity,
    mlp_complexity,
    rusboost_complexity,
    svm_complexity,
)
from .forest import ForestArrays, RandomForestClassifier
from .metrics import (
    EvaluationResult,
    OperatingPoint,
    auc_roc,
    average_precision,
    confusion_at_threshold,
    evaluate_scores,
    operating_point_at_fpr,
    pr_curve,
    roc_curve,
)
from .model_selection import (
    GridSearchResult,
    GroupKFold,
    grid_search,
    iterate_grid,
    positive_scores,
)
from .nn import MLPClassifier
from .scaling import StandardScaler
from .svm import SVMClassifier, rbf_kernel
from .tree import DecisionTreeClassifier, TreeArrays

__all__ = [
    "BinMapper",
    "BinnedDataset",
    "as_binned_dataset",
    "RUSBoostClassifier",
    "ComplexityReport",
    "complexity_of",
    "forest_complexity",
    "mlp_complexity",
    "rusboost_complexity",
    "svm_complexity",
    "ForestArrays",
    "RandomForestClassifier",
    "EvaluationResult",
    "OperatingPoint",
    "auc_roc",
    "average_precision",
    "confusion_at_threshold",
    "evaluate_scores",
    "operating_point_at_fpr",
    "pr_curve",
    "roc_curve",
    "GridSearchResult",
    "GroupKFold",
    "grid_search",
    "iterate_grid",
    "positive_scores",
    "MLPClassifier",
    "StandardScaler",
    "SVMClassifier",
    "rbf_kernel",
    "DecisionTreeClassifier",
    "TreeArrays",
]
