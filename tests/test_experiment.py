"""Integration tests for the leave-one-group-out experiment protocol."""

import numpy as np
import pytest

from repro.core.evaluation import format_table2
from repro.core.experiment import run_experiment
from repro.core.models import ModelSpec, model_zoo, rf_spec
from repro.ml.forest import RandomForestClassifier


def _fast_models():
    def make_rf(**kw):
        return RandomForestClassifier(
            n_estimators=40, class_weight="balanced", random_state=0, **kw
        )

    def make_shallow(**kw):
        # a deterministic single stump (no bootstrap, all features): a
        # zero-variance baseline, so "deeper beats stumps" does not hinge
        # on which random stream the stump forest happens to draw
        return RandomForestClassifier(
            n_estimators=1, max_depth=1, bootstrap=False, max_features=None,
            random_state=0, **kw
        )

    return [
        ModelSpec("RF", make_rf),
        ModelSpec("Stump", make_shallow),
    ]


@pytest.fixture(scope="module")
def result(mini_suite):
    return run_experiment(mini_suite, _fast_models(), tune=False)


class TestProtocol:
    def test_scores_only_for_designs_with_positives(self, mini_suite, result):
        scored = {s.design for s in result.scores}
        for d in mini_suite.designs:
            if 0 < d.num_hotspots < d.num_samples:
                assert d.name in scored
            else:
                assert d.name not in scored

    def test_every_model_scores_every_eligible_design(self, result):
        for design in result.design_order:
            for model in result.model_order:
                assert result.score_of(design, model) is not None

    def test_metric_ranges(self, result):
        for s in result.scores:
            assert 0 <= s.metrics.tpr_star <= 1
            assert 0 <= s.metrics.prec_star <= 1
            assert 0 <= s.metrics.a_prc <= 1

    def test_deeper_model_beats_stumps_on_average(self, result):
        assert result.averages("RF")[2] > result.averages("Stump")[2]

    def test_run_stats_populated(self, result):
        stats = {s.model: s for s in result.run_stats}
        assert stats["RF"].num_parameters > stats["Stump"].num_parameters
        assert stats["RF"].train_minutes >= 0

    def test_winning_designs_bounded(self, result):
        for model in result.model_order:
            wins = result.winning_designs(model)
            assert all(0 <= w <= len(result.design_order) for w in wins)

    def test_no_test_group_leakage(self, mini_suite):
        """A model must be trained without its test group's samples.

        We verify via a spy model that records the training sizes: for the
        2-group mini suite, each fit must see exactly the other group."""
        seen_sizes = []

        class Spy:
            def fit(self, X, y):
                seen_sizes.append(len(X))
                self._p = float(y.mean())
                return self

            def predict_proba(self, X):
                p = np.full(len(X), self._p)
                return np.column_stack([1 - p, p])

        run_experiment(mini_suite, [ModelSpec("Spy", lambda: Spy())], tune=False)
        group_sizes = {}
        for d in mini_suite.designs:
            group_sizes[d.group] = group_sizes.get(d.group, 0) + d.num_samples
        # training on group!=g for each g present
        expected = sorted(group_sizes[g] for g in group_sizes)
        assert sorted(seen_sizes) == expected


class TestFormatting:
    def test_table_contains_all_cells(self, result):
        text = format_table2(result)
        for design in result.design_order:
            assert design in text
        assert "Average" in text
        assert "# Win. des." in text
        assert "Pred op" in text

    def test_summarize_shape_keys(self, result):
        # the mini zoo has no SVM; summarize still reports RF dominance keys
        models = result.model_order
        summary_avg = {m: result.averages(m)[2] for m in models}
        assert max(summary_avg, key=summary_avg.get) == "RF"


class TestModelZoo:
    def test_zoo_has_five_paper_models(self):
        zoo = model_zoo("fast")
        assert [m.name for m in zoo] == ["SVM-RBF", "RUSBoost", "NN-1", "NN-2", "RF"]

    def test_presets_differ(self):
        fast_rf = rf_spec("fast").factory()
        full_rf = rf_spec("full").factory()
        assert full_rf.n_estimators > fast_rf.n_estimators
        assert full_rf.n_estimators == 500  # the paper's forest size

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            model_zoo("turbo")

    def test_scaling_flags(self):
        zoo = {m.name: m for m in model_zoo("fast")}
        assert zoo["SVM-RBF"].needs_scaling
        assert zoo["NN-1"].needs_scaling
        assert not zoo["RF"].needs_scaling
        assert not zoo["RUSBoost"].needs_scaling
