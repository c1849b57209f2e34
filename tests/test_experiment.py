"""Integration tests for the leave-one-group-out experiment protocol."""

import ctypes
import json
from functools import partial

import numpy as np
import pytest

from repro.cli import _blas_footnote
from repro.core.evaluation import format_table2
from repro.core.experiment import run_experiment
from repro.core.models import ModelSpec, model_zoo, rf_spec
from repro.ml.forest import RandomForestClassifier
from repro.runtime import FaultTolerantRunner, blas
from repro.runtime.telemetry import Tracer, activate


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


class _BlasProbe:
    """A constant-score estimator whose ``fit`` logs the OpenBLAS thread counts
    it runs with, one JSON line per fit (a file, so pool workers can log)."""

    def __init__(self, log: str, fail: bool = False):
        self.log, self.fail = log, fail

    def fit(self, X, y):
        with open(self.log, "a") as fh:
            fh.write(json.dumps(blas.thread_counts()) + "\n")
        if self.fail:
            raise RuntimeError("probe fit failed")
        self._p = float(y.mean())
        return self

    def predict_proba(self, X):
        p = np.full(len(X), self._p)
        return np.column_stack([1 - p, p])


def _probe(log, name="probe", budget=None, fail=False) -> ModelSpec:
    return ModelSpec(name, partial(_BlasProbe, str(log), fail), blas_threads=budget)


def _fit_counts(log) -> list[int]:
    """Every thread count any probe fit saw, over all loaded OpenBLAS builds."""
    return [n for line in log.read_text().splitlines()
            for n in json.loads(line).values()]


@pytest.fixture()
def caller_two_threads():
    """This process's OpenBLAS builds at 2 threads, restored afterwards.

    Set through the setter, so the budgets below are tested on a 1-CPU host
    too."""
    if not blas.thread_counts():
        pytest.skip("no OpenBLAS thread setter loaded")
    rows = blas._set_threads(lambda _: 2)
    assert set(blas.thread_counts().values()) == {2}
    yield
    for _, set_fn, old, new in rows:
        if new != old:
            set_fn(ctypes.c_int(old))


class TestBlasBudget:
    def test_budget_lowers_never_raises(self, caller_two_threads):
        with blas.thread_budget(1) as ran:
            assert ran == 1 and set(blas.thread_counts().values()) == {1}
            with blas.thread_budget(4) as inner:
                assert inner == 1 and set(blas.thread_counts().values()) == {1}
        with blas.thread_budget(None) as ran:
            assert ran == 2
        assert set(blas.thread_counts().values()) == {2}

    def test_inline_nn_budget_unit_runs_one_thread(
        self, mini_suite, tmp_path, caller_two_threads
    ):
        log = tmp_path / "fits.jsonl"
        tracer = Tracer()
        with activate(tracer):
            run_experiment(mini_suite, [_probe(log, "NN-1", budget=1)], tune=False)
        assert _fit_counts(log) and set(_fit_counts(log)) == {1}
        # the caller's count is back once the units returned
        assert set(blas.thread_counts().values()) == {2}
        units = [n for n in tracer.roots if n.name == "experiment_unit"]
        assert units and {n.attrs["blas_threads"] for n in units} == {1}

    def test_none_budget_keeps_callers_count(
        self, mini_suite, tmp_path, caller_two_threads
    ):
        log = tmp_path / "fits.jsonl"
        run_experiment(mini_suite, [_probe(log, "SVM-RBF")], tune=False)
        assert _fit_counts(log) and set(_fit_counts(log)) == {2}

    def test_callers_count_restored_after_unit_raises(
        self, mini_suite, tmp_path, caller_two_threads
    ):
        log = tmp_path / "fits.jsonl"
        with pytest.raises(Exception, match="probe fit failed"):
            run_experiment(mini_suite, [_probe(log, budget=1, fail=True)],
                           tune=False)
        assert set(_fit_counts(log)) == {1}
        assert set(blas.thread_counts().values()) == {2}

    def test_pool_worker_budget_stays_at_one(
        self, mini_suite, tmp_path, caller_two_threads
    ):
        # workers are pinned to 1 thread: a None budget keeps that 1 and a
        # larger budget never raises it
        log = tmp_path / "fits.jsonl"
        specs = [_probe(log, "SVM-RBF"), _probe(log, "wide", budget=4)]
        run_experiment(mini_suite, specs, tune=False,
                       runner=FaultTolerantRunner(fail_fast=True, jobs=2))
        counts = _fit_counts(log)
        assert len(counts) >= 4 and set(counts) == {1}
        assert set(blas.thread_counts().values()) == {2}

    def test_resumed_pool_run_with_one_unit_left_runs_one_thread(
        self, mini_suite, tmp_path, caller_two_threads
    ):
        # a -j 2 runner runs a lone pending unit inline; it must still run on
        # one thread, as a pinned worker would
        log, ckpt = tmp_path / "fits.jsonl", tmp_path / "ckpt"
        spec = _probe(log, "SVM-RBF")
        run_experiment(mini_suite, [spec], tune=False, checkpoint_dir=ckpt)
        (ckpt / "SVM-RBF__g1.json").unlink()
        log.unlink()
        tracer = Tracer()
        with activate(tracer):
            run_experiment(mini_suite, [spec], tune=False, checkpoint_dir=ckpt,
                           runner=FaultTolerantRunner(fail_fast=True, jobs=2))
        assert set(_fit_counts(log)) == {1}
        units = [n for n in tracer.roots if n.name == "experiment_unit"]
        assert len(units) == 1 and units[0].attrs["blas_threads"] == 1
        assert set(blas.thread_counts().values()) == {2}

    def test_table2_footnote_names_thread_counts(self, caller_two_threads):
        zoo = model_zoo("fast")
        assert _blas_footnote(zoo, jobs=1) == (
            "CPU rows count OpenBLAS threads: 1 for RUSBoost, NN-1, NN-2, RF; "
            "2 for SVM-RBF"
        )
        assert _blas_footnote(zoo, jobs=2) == (
            "CPU rows count OpenBLAS threads: "
            "1 for SVM-RBF, RUSBoost, NN-1, NN-2, RF"
        )
