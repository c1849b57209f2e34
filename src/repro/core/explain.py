"""Individual hotspot explanation — the paper's Sec. IV-B workflow.

Given a design under test, this module reproduces the full Fig. 3 + Fig. 4
experience in text form:

1. train the RF on the other groups (same protocol as Table II),
2. pick the strongest predicted DRC hotspots of the design,
3. compute each prediction's SHAP values with the tree explainer,
4. render a force plot (Fig. 4), the surrounding GR congestion per layer
   (Fig. 3's colored maps), and — for validation — the *actual* DRC errors
   the simulated detailed router produced at that g-cell, which are not
   available at prediction time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..features.dataset import SuiteDataset
from ..features.names import feature_names
from ..ml.forest import RandomForestClassifier
from ..ml.shap.plots import Explanation, build_explanation, force_plot_text
from ..ml.shap.tree_explainer import TreeShapExplainer
from ..route.congestion import render_layer_congestion
from ..runtime.runner import FaultTolerantRunner
from .models import rf_spec
from .pipeline import FlowResult


@dataclass
class HotspotExplanationReport:
    """One explained hotspot: prediction, SHAP, context, ground truth."""

    design: str
    cell: tuple[int, int]
    prediction: float
    is_actual_hotspot: bool
    explanation: Explanation
    congestion_views: dict[str, str]  # layer name -> ASCII view
    actual_errors: str
    shap_seconds: float

    def render(self, top_k: int = 8) -> str:
        lines = [
            f"=== {self.design} g-cell {self.cell} — "
            f"P(hotspot) = {self.prediction:.3f} "
            f"({'actual hotspot' if self.is_actual_hotspot else 'no actual error'}) ===",
            "",
            "SHAP explanation (Fig. 4 analogue):",
            force_plot_text(self.explanation, top_k=top_k),
            "",
            "GR congestion context (Fig. 3 analogue):",
        ]
        for layer, view in self.congestion_views.items():
            lines.append(view)
            lines.append("")
        lines.append(f"Actual DRC errors (ground truth): {self.actual_errors}")
        lines.append(f"(SHAP runtime: {self.shap_seconds:.2f} s/sample)")
        return "\n".join(lines)


def train_explanation_forest(
    suite: SuiteDataset,
    design_name: str,
    preset: str = "fast",
    random_state: int = 0,
    n_jobs: int = 1,
) -> RandomForestClassifier:
    """Fit the RF on everything outside the design's group (paper protocol).

    The tree groups grow as ``forest`` units on an ``n_jobs``-worker
    runner: inline for 1, on its worker processes otherwise.
    """
    target = suite.by_name(design_name)
    X_train, y_train, _ = suite.stacked(exclude_groups=(target.group,))
    model = rf_spec(preset, random_state).factory()
    model.fit(X_train, y_train,
              runner=FaultTolerantRunner(jobs=n_jobs, fail_fast=True))
    return model


def explain_hotspots(
    suite: SuiteDataset,
    flow: FlowResult,
    model: RandomForestClassifier | None = None,
    num_hotspots: int = 3,
    layers: tuple[int, ...] = (3, 4, 5),
    preset: str = "fast",
    n_jobs: int = 1,
) -> list[HotspotExplanationReport]:
    """Explain the top predicted hotspots of a design.

    ``flow`` must be the design's :class:`~repro.core.pipeline.FlowResult`
    (it carries the congestion maps and the ground-truth DRC report).
    """
    design_name = flow.design.name
    if model is None:
        model = train_explanation_forest(suite, design_name, preset,
                                         n_jobs=n_jobs)
    dataset = suite.by_name(design_name)

    probs = model.predict_proba(dataset.X)[:, 1]
    explainer = TreeShapExplainer(model.trees, dataset.X.shape[1])
    names = feature_names()

    top_rows = np.argsort(-probs)[:num_hotspots]
    reports: list[HotspotExplanationReport] = []
    for row in top_rows:
        cell = dataset.cell_of_sample(int(row))
        x = dataset.X[int(row)]
        t0 = time.perf_counter()
        shap_vals = explainer.shap_values_single(x)
        shap_seconds = time.perf_counter() - t0
        explanation = build_explanation(
            base_value=explainer.expected_value,
            prediction=float(probs[row]),
            shap_values=shap_vals,
            feature_values=x,
            feature_names=names,
        )
        views = {
            f"M{m}": render_layer_congestion(flow.routing.rgrid, m, cell)
            for m in layers
        }
        reports.append(
            HotspotExplanationReport(
                design=design_name,
                cell=cell,
                prediction=float(probs[row]),
                is_actual_hotspot=bool(dataset.y[int(row)] == 1),
                explanation=explanation,
                congestion_views=views,
                actual_errors=flow.drc_report.describe_cell(flow.grid, cell),
                shap_seconds=shap_seconds,
            )
        )
    return reports


def explanation_layers_mentioned(report: HotspotExplanationReport, k: int = 10) -> set[str]:
    """Metal/via layers named by the top-k SHAP features.

    Used to validate explanations against the actual violations (the
    paper's consistency check in Sec. IV-B): the layers the explanation
    blames should overlap the layers where errors actually occurred.
    """
    layers: set[str] = set()
    for c in report.explanation.top(k):
        stem = c.name.split("_")[0]
        if len(stem) >= 4 and stem[0] in "ev" and stem[1] in "cld":
            layers.add(stem[2:])
    return layers
