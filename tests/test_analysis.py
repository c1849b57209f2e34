"""Tests for the analysis toolkit (curves, thresholds, SHAP summary, reports)."""

import numpy as np
import pytest

from repro.analysis import (
    design_report,
    render_pr_curve,
    summarize_shap,
    sweep_thresholds,
    threshold_for_recall,
)
from repro.features.names import NUM_FEATURES, feature_index


@pytest.fixture()
def scored():
    rng = np.random.default_rng(0)
    y = (rng.random(800) < 0.08).astype(np.int8)
    s = y * 0.8 + rng.normal(scale=0.35, size=800)
    return y, s


class TestCurves:
    def test_pr_render(self, scored):
        y, s = scored
        text = render_pr_curve(y, s)
        assert "A_prc" in text
        assert "*" in text
        assert "recall" in text


class TestThresholds:
    def test_sweep_monotone_tpr(self, scored):
        y, s = scored
        sweep = sweep_thresholds(y, s)
        tprs = [p.tpr for p in sweep.points]
        assert tprs == sorted(tprs), "looser FPR budgets admit more recall"
        assert all(
            p.fpr <= b + 1e-12 for p, b in zip(sweep.points, sweep.budgets)
        )

    def test_sweep_table(self, scored):
        y, s = scored
        text = sweep_thresholds(y, s).format_table()
        assert "FPR budget" in text
        assert "0.0050" in text  # the paper's budget

    def test_threshold_for_recall(self, scored):
        y, s = scored
        thr = threshold_for_recall(y, s, 0.9)
        recall = ((s >= thr) & (y == 1)).sum() / y.sum()
        assert recall >= 0.9

    def test_threshold_for_impossible_recall(self, scored):
        y, s = scored
        with pytest.raises(ValueError):
            threshold_for_recall(y, s, 1.5)


class TestShapSummary:
    def test_summary_ranks_by_mean_abs(self):
        rng = np.random.default_rng(1)
        shap = rng.normal(scale=0.001, size=(50, NUM_FEATURES))
        idx = feature_index()
        shap[:, idx["edM5_7H"]] = 0.5  # dominant feature
        summary = summarize_shap(shap)
        assert summary.top_features(1)[0][0] == "edM5_7H"

    def test_groups_cover_all_mass(self):
        rng = np.random.default_rng(2)
        shap = np.abs(rng.normal(size=(20, NUM_FEATURES)))
        summary = summarize_shap(shap)
        groups = summary.by_group()
        assert set(groups) >= {"placement", "edge_M3", "via_V1"}
        assert sum(groups.values()) == pytest.approx(summary.mean_abs.sum())

    def test_report_text(self):
        shap = np.zeros((5, NUM_FEATURES))
        text = summarize_shap(shap).format_report()
        assert "feature family" in text

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            summarize_shap(np.zeros((3, 10)))


class TestDesignReport:
    def test_full_report(self, small_flow):
        dataset = small_flow.dataset
        rng = np.random.default_rng(3)
        scores = dataset.y * 0.7 + rng.random(dataset.num_samples) * 0.2
        text = design_report(dataset, scores)
        assert dataset.name in text
        assert "top 10 predicted hotspot" in text
        if 0 < dataset.num_hotspots < dataset.num_samples:
            assert "A_prc" in text
            assert "P-R curve" in text

    def test_report_shape_mismatch(self, small_flow):
        with pytest.raises(ValueError):
            design_report(small_flow.dataset, np.zeros(3))
