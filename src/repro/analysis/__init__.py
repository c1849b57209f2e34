"""Analysis toolkit: curves, threshold sweeps, SHAP summaries, reports."""

from .calibration import CalibrationReport, ReliabilityBin, calibration_report
from .curves import render_pr_curve
from .report import design_report
from .shap_summary import ShapSummary, summarize_shap
from .threshold import (
    ThresholdSweep,
    sweep_thresholds,
    threshold_for_recall,
)

__all__ = [
    "CalibrationReport",
    "ReliabilityBin",
    "calibration_report",
    "render_pr_curve",
    "design_report",
    "ShapSummary",
    "summarize_shap",
    "ThresholdSweep",
    "sweep_thresholds",
    "threshold_for_recall",
]
