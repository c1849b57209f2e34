"""Integration tests for the hotspot explanation workflow (Fig. 3/4)."""

import pytest

from repro.core.explain import (
    explain_hotspots,
    explanation_layers_mentioned,
    train_explanation_forest,
)
from repro.core.pipeline import run_flow
from repro.features.dataset import DesignDataset, SuiteDataset
from repro.runtime import StageFailure
from repro.ml.tree import DecisionTreeClassifier
from tests.breaking import breaking
from tests.conftest import SMALL_RECIPE


@pytest.fixture(scope="module")
def explain_setup(small_flow_module):
    flow = small_flow_module
    # a 2-design suite: the flow design (group 0) + itself relabeled as a
    # training twin in group 1 (cheap but exercises the group protocol)
    d = flow.dataset
    train_twin = DesignDataset(
        name="twin", group=1, X=d.X, y=d.y, grid_nx=d.grid_nx, grid_ny=d.grid_ny
    )
    target = DesignDataset(
        name=d.name, group=0, X=d.X, y=d.y, grid_nx=d.grid_nx, grid_ny=d.grid_ny
    )
    suite = SuiteDataset([target, train_twin])
    return suite, flow


@pytest.fixture(scope="module")
def small_flow_module():
    return run_flow(SMALL_RECIPE)


@pytest.fixture(scope="module")
def reports(explain_setup):
    suite, flow = explain_setup
    return explain_hotspots(suite, flow, num_hotspots=2, preset="fast")


class TestExplainHotspots:
    def test_report_count(self, reports):
        assert len(reports) == 2

    def test_local_accuracy_holds(self, reports):
        for r in reports:
            assert r.explanation.check_local_accuracy(atol=1e-6)

    def test_predictions_sorted_descending(self, reports):
        preds = [r.prediction for r in reports]
        assert preds == sorted(preds, reverse=True)

    def test_congestion_views_present(self, reports):
        for r in reports:
            assert set(r.congestion_views) == {"M3", "M4", "M5"}
            for view in r.congestion_views.values():
                assert "congestion" in view

    def test_actual_errors_string(self, reports):
        for r in reports:
            assert "g-cell" in r.actual_errors

    def test_render_sections(self, reports):
        text = reports[0].render()
        assert "SHAP explanation" in text
        assert "base value" in text
        assert "Actual DRC errors" in text
        assert "SHAP runtime" in text

    def test_layers_mentioned_extraction(self, reports):
        layers = explanation_layers_mentioned(reports[0], k=10)
        assert layers  # top features are congestion features on our data
        assert all(l[0] in "MV" for l in layers)

    def test_explanations_blame_real_layers(self, explain_setup, reports):
        """Sec. IV-B consistency: for a true hotspot, the explanation's
        layers should overlap the layers of actual violations nearby."""
        suite, flow = explain_setup
        for r in reports:
            if not r.is_actual_hotspot:
                continue
            actual_layers = {
                v.layer
                for v in flow.drc_report.violations_in_cell(flow.grid, r.cell)
            }
            mentioned = explanation_layers_mentioned(r, k=15)
            # via layers Vk in the explanation speak for metal k/k+1 EOLs
            expanded = set(mentioned)
            for l in mentioned:
                if l.startswith("V"):
                    k = int(l[1:])
                    expanded.add(f"M{k}")
                    expanded.add(f"M{k + 1}")
            assert actual_layers & expanded, (
                f"explanation layers {mentioned} vs actual {actual_layers}"
            )


class TestTrainExplanationForest:
    def test_excludes_target_group(self, explain_setup):
        suite, flow = explain_setup
        model = train_explanation_forest(suite, flow.design.name, preset="fast")
        # sanity: it predicts probabilities on the target design
        target = suite.by_name(flow.design.name)
        p = model.predict_proba(target.X)[:, 1]
        assert p.shape == (target.num_samples,)
        assert (0 <= p).all() and (p <= 1).all()

    def test_two_workers_grow_the_same_trees(self, mini_suite):
        serial = train_explanation_forest(mini_suite, "mini_a", n_jobs=1)
        pooled = train_explanation_forest(mini_suite, "mini_a", n_jobs=2)
        assert len(serial.trees) == len(pooled.trees) > 16  # several units
        assert max(t.node_count for t in serial.trees) > 1
        for a, b in zip(serial.trees, pooled.trees):
            for name in ("children_left", "children_right", "feature",
                         "threshold", "cover", "value"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_failed_forest_unit_raises(self, mini_suite, n_jobs, monkeypatch):
        # the group whose first tree is tree 15 fails, inline or on a worker
        monkeypatch.setattr(DecisionTreeClassifier, "grow", breaking(
            DecisionTreeClassifier.grow,
            when=lambda self, dataset, y, weights, rngs:
                rngs[0].bit_generator.seed_seq.spawn_key == (15,),
        ))
        with pytest.raises(StageFailure) as exc:
            train_explanation_forest(mini_suite, "mini_a", n_jobs=n_jobs)
        assert (exc.value.stage, exc.value.unit) == ("forest", "trees15-29")
