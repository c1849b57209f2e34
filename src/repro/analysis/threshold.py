"""Threshold exploration: the designer-facing knob the paper emphasises.

"In practice, the designer is free to adjust the threshold to get
different prediction results with the same model" (Sec. III-B).  This
module turns a scored design into an operating-point table across
false-positive-rate budgets, and picks the loosest threshold that reaches
a recall target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.metrics import OperatingPoint, operating_point_at_fpr, pr_curve


@dataclass(frozen=True)
class ThresholdSweep:
    """Operating points at several FPR budgets for one scored design."""

    budgets: tuple[float, ...]
    points: tuple[OperatingPoint, ...]

    def format_table(self) -> str:
        header = (
            f"{'FPR budget':>10s} {'threshold':>10s} {'TPR*':>8s} "
            f"{'Prec*':>8s} {'TP':>5s} {'FP':>5s} {'FN':>5s}"
        )
        lines = [header, "-" * len(header)]
        for budget, op in zip(self.budgets, self.points):
            lines.append(
                f"{budget:>10.4f} {op.threshold:>10.4f} {op.tpr:>8.4f} "
                f"{op.precision:>8.4f} {op.tp:>5d} {op.fp:>5d} {op.fn:>5d}"
            )
        return "\n".join(lines)


def sweep_thresholds(
    y_true: np.ndarray,
    scores: np.ndarray,
    budgets: tuple[float, ...] = (0.001, 0.0025, 0.005, 0.01, 0.02, 0.05),
) -> ThresholdSweep:
    """Operating points at each FPR budget (paper default 0.5% included)."""
    points = tuple(
        operating_point_at_fpr(y_true, scores, budget) for budget in budgets
    )
    return ThresholdSweep(budgets=tuple(budgets), points=points)


def threshold_for_recall(
    y_true: np.ndarray, scores: np.ndarray, min_recall: float
) -> float:
    """Loosest threshold reaching at least ``min_recall``.

    Raises ``ValueError`` when no threshold achieves the target (can only
    happen for min_recall > 1 or empty positives).
    """
    precision, recall, thresholds = pr_curve(y_true, scores)
    ok = np.flatnonzero(recall >= min_recall)
    if not ok.size:
        raise ValueError(f"no threshold reaches recall {min_recall}")
    return float(thresholds[ok[0]])
