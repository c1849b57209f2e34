"""Tests of the benchmark itself, at a tiny configuration.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Hook, SpanRecorder, patched  # noqa: E402

#: small scale, one model, one design
TINY = wl.Config(seconds=0.0, suite_scale=0.3, scale=0.3, models=("NN-1",),
                 designs=("des_perf_1",), hotspots=2)

#: The layer metrics each workload measures itself (the rest read 0).
OWN_LAYERS = {
    "suite-j2": ["bench.generate_s", "place.place_s", "route.route_s",
                 "route.negotiation_rounds", "route.segments", "drc.sim_s",
                 "features.extract_s", "features.gcells", "features.dataset.save_s",
                 "core.pipeline.slowest_flow_s", "runtime.parallel.efficiency"],
    "table2": ["features.dataset.stack_s", "ml.scaling.fit_transform_s",
               "ml.nn.fit_s", "ml.nn.predict_s", "ml.nn.cpu_per_wall",
               "ml.metrics.evaluate_s", "ml.complexity.report_s",
               # the traced run's explain stage
               "explain_s_per_hotspot", "shap_rows_per_s", "ml.forest.leaves",
               "ml.forest.max_depth", "ml.forest.proba_s", "ml.shap.build_s",
               "ml.shap.single_ms_per_row", "ml.shap.batch_ms_per_row",
               "ml.shap.bulk_ms_per_row", "route.congestion.render_s",
               "analysis.shap_summary.summarize_s"],
}


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == wl.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run(workload, TINY, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wl.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["figures"]["fail_rate"] == 0
    env = result["environment"]
    for key in ("cpu_count", "thread_env", "blas", "python", "numpy",
                "start_method", "git_commit"):
        assert key in env


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run(workload, TINY, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == wl.PER_LAYER
    for name in OWN_LAYERS[workload]:
        assert metrics[name]["value"] > 0, name
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0 + 1e-9
    assert result["spans"], "the traced run keeps its spans"


def _corrupt(outputs: dict) -> dict:
    """The same outputs with one recorded value changed."""
    doc = json.loads(json.dumps(outputs))
    key = sorted(doc)[0]
    value = doc[key]
    if isinstance(value, str):  # suite-j2: a design's digest
        doc[key] = "0" * len(value)
    elif isinstance(value, list):  # table2: a Table II cell
        value[0] = value[0] + 1e-3 if value[0] < 0.5 else value[0] - 1e-3
    else:  # table2's explain stage: a hotspot's SHAP row
        value["phi"][0][0] += 1e-9
    return doc


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_corrupted_reference_raises_fail_rate(workload, tmp_path):
    spec = wl.WORKLOADS[workload]
    state = spec.setup(TINY)
    clean = spec.measure(TINY, state, tmp_path, False, None)
    assert clean.failed == 0 and clean.outputs
    same = spec.measure(TINY, state, tmp_path, False, clean.outputs)
    assert same.failed == 0, same.problems
    bad = spec.measure(TINY, state, tmp_path, False, _corrupt(clean.outputs))
    assert 0 < bad.failed <= bad.attempted
    assert bad.problems


def test_corrupted_shap_reference_raises_fail_rate():
    state = wl.setup_explain(TINY, wl.build_training_suite(TINY))
    clean = wl.trace_explain(TINY, state, None, SpanRecorder())
    assert clean.failed == 0 and clean.outputs
    same = wl.trace_explain(TINY, state, clean.outputs, SpanRecorder())
    assert same.failed == 0, same.problems
    bad = wl.trace_explain(TINY, state, _corrupt(clean.outputs), SpanRecorder())
    assert 0 < bad.failed <= bad.attempted
    assert bad.problems


def test_seed_reaches_only_the_models_random_state(monkeypatch):
    scales = []
    monkeypatch.setattr(wl, "build_training_suite", lambda cfg: scales.append(cfg.scale))
    state = wl.setup_table2(replace(TINY, seed=7, models=()))
    assert scales == [TINY.scale]  # the suite depends on the scale alone
    assert len(state.specs) == 5
    assert {s.factory.keywords["random_state"] for s in state.specs} == {7}

    forests = []
    monkeypatch.setattr(wl, "train_explanation_forest",
                        lambda suite, name, preset, random_state, n_jobs: forests.append(random_state))
    monkeypatch.setattr(wl, "run_flow", lambda recipe: None)
    with pytest.raises(AttributeError):  # stops at the stubbed suite
        wl.setup_explain(replace(TINY, seed=7), None)
    assert forests == [7]


def test_span_self_time_and_patch_restore():
    class Layer:
        def outer(self, inner):
            return inner()

        def inner(self):
            return 42

        @classmethod
        def build(cls):
            return cls()

    originals = dict(vars(Layer))
    rec = SpanRecorder()
    obj = Layer()
    with patched(rec, [Hook(Layer, "outer", "a"), Hook(Layer, "inner", "b"),
                       Hook(Layer, "build", "c",
                            lambda r, result, args: r.count("built"))]):
        assert obj.outer(obj.inner) == 42
        assert isinstance(Layer.build(), Layer)
    assert all(vars(Layer)[k] is v for k, v in originals.items())
    a, b = rec.of("a")[0], rec.of("b")[0]
    assert b.parent == 0 and a.parent == -1
    assert a.self_s == pytest.approx(a.wall_s - b.wall_s)
    assert rec.counts["built"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
