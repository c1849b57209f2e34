"""Unit tests for Table II formatting and shape summarisation."""

import pytest

from repro.core.evaluation import format_table2, summarize_shape
from repro.core.experiment import (
    DesignScore,
    ExperimentResult,
    ModelRunStats,
)
from repro.ml.metrics import EvaluationResult


def _metrics(tpr, prec, aprc):
    return EvaluationResult(
        tpr_star=tpr, prec_star=prec, a_prc=aprc, a_roc=0.9,
        num_samples=100, num_positives=10,
    )


@pytest.fixture()
def result():
    scores = [
        DesignScore("d1", "RF", _metrics(0.5, 0.6, 0.7)),
        DesignScore("d1", "SVM-RBF", _metrics(0.4, 0.5, 0.6)),
        DesignScore("d2", "RF", _metrics(0.3, 0.4, 0.5)),
        # SVM has no score for d2 (e.g. skipped) -> "--" cell
    ]
    stats = [
        ModelRunStats("RF", num_parameters=1000, prediction_ops=10,
                      train_minutes=1.0, predict_minutes_per_design=0.1),
        ModelRunStats("SVM-RBF", num_parameters=5000, prediction_ops=900,
                      train_minutes=0.5, predict_minutes_per_design=0.2),
    ]
    return ExperimentResult(
        scores=scores,
        run_stats=stats,
        design_order=["d1", "d2"],
        model_order=["RF", "SVM-RBF"],
        target_fpr=0.005,
    )


class TestFormatTable2:
    def test_missing_cell_shown_as_dashes(self, result):
        text = format_table2(result)
        assert "--" in text

    def test_winner_starred(self, result):
        text = format_table2(result)
        d1_row = next(l for l in text.splitlines() if l.startswith("d1"))
        # RF wins every d1 metric: all its cells starred
        assert "0.7000*" in d1_row
        # the losing SVM cells are unstarred
        assert "0.4000 " in d1_row and "0.4000*" not in d1_row

    def test_cost_rows_present(self, result):
        text = format_table2(result)
        assert "# Param (k)" in text
        assert "Train (min)" in text


class TestAggregates:
    def test_averages_over_scored_designs_only(self, result):
        tpr, prec, aprc = result.averages("SVM-RBF")
        assert aprc == pytest.approx(0.6)  # only d1 scored
        tpr, prec, aprc = result.averages("RF")
        assert aprc == pytest.approx(0.6)  # mean of 0.7 and 0.5

    def test_winning_designs_counts_ties_for_all(self):
        scores = [
            DesignScore("d1", "A", _metrics(0.5, 0.5, 0.5)),
            DesignScore("d1", "B", _metrics(0.5, 0.5, 0.5)),
        ]
        r = ExperimentResult(
            scores=scores,
            run_stats=[ModelRunStats("A"), ModelRunStats("B")],
            design_order=["d1"],
            model_order=["A", "B"],
            target_fpr=0.005,
        )
        assert r.winning_designs("A") == (1, 1, 1)
        assert r.winning_designs("B") == (1, 1, 1)

    def test_score_of_duplicate_keeps_first(self):
        """The (design, model) index must keep linear-scan first-wins order."""
        scores = [
            DesignScore("d1", "A", _metrics(0.1, 0.1, 0.1)),
            DesignScore("d1", "A", _metrics(0.9, 0.9, 0.9)),
        ]
        r = ExperimentResult(
            scores=scores,
            run_stats=[ModelRunStats("A")],
            design_order=["d1"],
            model_order=["A"],
            target_fpr=0.005,
        )
        assert r.score_of("d1", "A").a_prc == pytest.approx(0.1)

    def test_score_index_tracks_incremental_scores(self):
        """Callers build results incrementally; the index must not go stale."""
        r = ExperimentResult(
            scores=[DesignScore("d1", "A", _metrics(0.1, 0.2, 0.3))],
            run_stats=[ModelRunStats("A")],
            design_order=["d1", "d2"],
            model_order=["A"],
            target_fpr=0.005,
        )
        assert r.score_of("d2", "A") is None
        r.scores.append(DesignScore("d2", "A", _metrics(0.4, 0.5, 0.6)))
        assert r.score_of("d2", "A").a_prc == pytest.approx(0.6)

    def test_winning_designs_near_tie_within_tolerance(self):
        """A 1e-12-close runner-up still counts as a win (tie tolerance)."""
        scores = [
            DesignScore("d1", "A", _metrics(0.5, 0.5, 0.5)),
            DesignScore("d1", "B", _metrics(0.5 - 1e-13, 0.5, 0.5)),
            DesignScore("d2", "A", _metrics(0.2, 0.2, 0.2)),
            DesignScore("d2", "B", _metrics(0.8, 0.8, 0.8)),
        ]
        r = ExperimentResult(
            scores=scores,
            run_stats=[ModelRunStats("A"), ModelRunStats("B")],
            design_order=["d1", "d2"],
            model_order=["A", "B"],
            target_fpr=0.005,
        )
        assert r.winning_designs("A") == (1, 1, 1)
        assert r.winning_designs("B") == (2, 2, 2)

    def test_summarize_shape_gain(self, result):
        shape = summarize_shape(result)
        assert shape["rf_best_average_aprc"] is True
        # explicit: RF avg 0.6, SVM avg 0.6 -> gain 0.0
        assert shape["rf_vs_svm_aprc_gain"] == pytest.approx(0.0, abs=1e-9)

    def test_summarize_shape_without_rf(self, result):
        """A model subset with SVM-RBF but no RF has no RF-vs-SVM gain."""
        svm_only = ExperimentResult(
            scores=[s for s in result.scores if s.model == "SVM-RBF"],
            run_stats=[s for s in result.run_stats if s.model == "SVM-RBF"],
            design_order=result.design_order,
            model_order=["SVM-RBF"],
            target_fpr=result.target_fpr,
        )
        shape = summarize_shape(svm_only)
        assert "rf_vs_svm_aprc_gain" not in shape
        assert shape["rf_best_average_aprc"] is False
        assert shape["svm_most_prediction_ops"] is True
