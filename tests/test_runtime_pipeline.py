"""Integration tests: resumable suite builds and fault-tolerant experiments.

These exercise the whole runtime machinery end-to-end via the fault-injection
harness: kill-and-resume mid-suite, corrupted-checkpoint detection + rebuild,
the store as the suite cache, graceful degradation, and experiment-grid resume.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.bench.suite import SUITE_ORDER, suite_recipes
from repro.core.experiment import run_experiment
from repro.core.models import ModelSpec
from repro.core.pipeline import ADHOC_GROUP, build_suite_dataset, checkpoint_dir_for
from repro.features.dataset import DesignDataset, SuiteDataset
from repro.features.names import NUM_FEATURES
from repro.runtime import (
    CheckpointStore,
    FaultSpec,
    FaultTolerantRunner,
    StageFailure,
    inject_faults,
)
from repro.runtime.telemetry import Tracer, activate

SCALE = 0.3  # tiny grids: the full 14-design suite flows in seconds


def _checkpointed(store: CheckpointStore) -> list[str]:
    """The suite designs whose checkpoint the store holds, in suite order."""
    return [n for n in SUITE_ORDER if store.has(f"{n}.npz")]


@pytest.fixture()
def counted_run_flow(monkeypatch):
    """Count invocations of the real flow made by the suite builder."""
    calls: list[str] = []
    real = pipeline.run_flow

    def counting(recipe, *args, **kwargs):
        calls.append(recipe.name)
        return real(recipe, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_flow", counting)
    return calls


class TestKillAndResume:
    def test_interrupted_build_resumes_remaining_designs(
        self, tmp_path, counted_run_flow
    ):
        cache = tmp_path / "suite.npz"
        killed_at = SUITE_ORDER[2]  # die on the 3rd of 14 designs

        with inject_faults(FaultSpec(stage=f"flow/{killed_at}", times=1)):
            with pytest.raises(StageFailure):
                build_suite_dataset(SCALE, cache_path=cache)
        # the injected fault kills design 3 before its flow body runs
        assert counted_run_flow == list(SUITE_ORDER[:2])
        assert not cache.exists()  # the name only locates the store

        store = CheckpointStore(checkpoint_dir_for(cache))
        assert _checkpointed(store) == list(SUITE_ORDER[:2])

        # re-invocation re-runs ONLY the 14 - 2 unfinished flows
        counted_run_flow.clear()
        suite, stats = build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == list(SUITE_ORDER[2:])
        assert len(counted_run_flow) == 14 - 2
        assert suite.names == list(SUITE_ORDER)
        assert len(stats) == 14
        assert _checkpointed(store) == list(SUITE_ORDER)

        # third invocation: everything comes from the (now complete) store
        counted_run_flow.clear()
        suite2, _ = build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == []
        assert suite2.names == suite.names

    def test_no_resume_flag_recomputes_everything(self, tmp_path, counted_run_flow):
        cache = tmp_path / "suite.npz"
        with inject_faults(FaultSpec(stage=f"flow/{SUITE_ORDER[5]}", times=1)):
            with pytest.raises(StageFailure):
                build_suite_dataset(SCALE, cache_path=cache)
        counted_run_flow.clear()
        build_suite_dataset(SCALE, cache_path=cache, resume=False)
        assert len(counted_run_flow) == 14


class TestCorruptionRecovery:
    def test_corrupted_checkpoint_is_rebuilt_not_loaded(
        self, tmp_path, counted_run_flow
    ):
        cache = tmp_path / "suite.npz"
        build_suite_dataset(SCALE, cache_path=cache)
        victim = SUITE_ORDER[7]

        # corrupt one design's checkpoint payload
        store = CheckpointStore(checkpoint_dir_for(cache))
        payload_path = store.root / f"{victim}.npz"
        data = bytearray(payload_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload_path.write_bytes(bytes(data))

        counted_run_flow.clear()
        suite, _ = build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == [victim]  # checksum caught it; only it re-ran
        assert suite.names == list(SUITE_ORDER)
        store.load_bytes(f"{victim}.npz")  # rebuilt checkpoint is sound again

    def test_injected_checkpoint_corruption_detected_on_next_run(
        self, tmp_path, counted_run_flow
    ):
        cache = tmp_path / "suite.npz"
        victim = SUITE_ORDER[0]
        with inject_faults(
            FaultSpec(stage=f"checkpoint/{victim}.npz", kind="corrupt")
        ) as plan:
            build_suite_dataset(SCALE, cache_path=cache)
        assert (f"checkpoint/{victim}.npz", "corrupt") in plan.triggered

        # the torn artefact is detected by checksum and only it is re-flowed
        counted_run_flow.clear()
        build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == [victim]


class TestSuiteStore:
    """The per-design checkpoints are the suite's only on-disk form."""

    def test_warm_build_equals_cold_build(self, tmp_path, counted_run_flow):
        cache = tmp_path / "suite.npz"
        cold, cold_stats = build_suite_dataset(SCALE, cache_path=cache)
        counted_run_flow.clear()
        warm, warm_stats = build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == []
        assert warm.names == cold.names == list(SUITE_ORDER)
        for c, w in zip(cold.designs, warm.designs):
            assert w.X.dtype == np.float64
            assert np.array_equal(w.X, c.X), w.name
            assert np.array_equal(w.y, c.y), w.name
            assert (w.group, w.grid_nx, w.grid_ny) == (c.group, c.grid_nx, c.grid_ny)
        assert warm_stats == cold_stats

    def test_complete_store_with_no_resume_runs_no_flows(
        self, tmp_path, counted_run_flow
    ):
        cache = tmp_path / "suite.npz"
        build_suite_dataset(SCALE, cache_path=cache)
        counted_run_flow.clear()
        suite, stats = build_suite_dataset(SCALE, cache_path=cache, resume=False)
        assert counted_run_flow == []
        assert suite.names == list(SUITE_ORDER)
        assert len(stats) == 14

    def test_v2_store_is_reflowed(self, tmp_path, monkeypatch, counted_run_flow):
        import repro.runtime.checkpoint as checkpoint

        cache = tmp_path / "suite.npz"
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "CHECKPOINT_FORMAT_VERSION", 2)
            build_suite_dataset(SCALE, cache_path=cache)
        store = CheckpointStore(checkpoint_dir_for(cache))
        assert _checkpointed(store) == []  # a v2 manifest is no store for v3 code

        counted_run_flow.clear()
        build_suite_dataset(SCALE, cache_path=cache)
        assert sorted(counted_run_flow) == sorted(SUITE_ORDER)
        for n in SUITE_ORDER:
            store.load_bytes(f"{n}.npz")  # raises unless sound

    def test_transient_read_error_keeps_checkpoint(self, tmp_path, monkeypatch):
        cache = tmp_path / "suite.npz"
        build_suite_dataset(SCALE, cache_path=cache)
        store = CheckpointStore(checkpoint_dir_for(cache))
        victim = SUITE_ORDER[5]
        victim_path = store.root / f"{victim}.npz"
        before = store.file_digests()
        real_read = Path.read_bytes

        def denied(path):
            if path == victim_path:
                raise PermissionError("transient EACCES")
            return real_read(path)

        keys = [f"{r.name}.npz" for r in suite_recipes(SCALE)]

        def load(key):
            return pipeline._load_design_checkpoint(store, key.removesuffix(".npz"))

        with monkeypatch.context() as m:
            m.setattr(Path, "read_bytes", denied)
            loaded = store.restore(keys, load)
        # an NFS hiccup re-runs the design this time, but must not destroy
        # its sound, expensive-to-rebuild checkpoint
        assert sorted(loaded) == sorted(f"{n}.npz" for n in SUITE_ORDER if n != victim)
        assert store.has(f"{victim}.npz")
        assert store.file_digests() == before
        assert f"{victim}.npz" in store.restore(keys, load)

    def test_no_resume_reads_no_checkpoint_of_an_incomplete_store(
        self, tmp_path, monkeypatch, counted_run_flow
    ):
        cache = tmp_path / "suite.npz"
        build_suite_dataset(SCALE, cache_path=cache)
        CheckpointStore(checkpoint_dir_for(cache)).invalidate(f"{SUITE_ORDER[0]}.npz")
        loads: list[str] = []
        real_load = pipeline._load_design_checkpoint

        def counting(store, name):
            loads.append(name)
            return real_load(store, name)

        monkeypatch.setattr(pipeline, "_load_design_checkpoint", counting)
        counted_run_flow.clear()
        build_suite_dataset(SCALE, cache_path=cache, resume=False)
        assert loads == []  # no hit is possible, and nothing would be kept
        assert sorted(counted_run_flow) == sorted(SUITE_ORDER)


class TestGracefulDegradation:
    def test_failed_design_is_recorded_and_skipped(self, tmp_path, counted_run_flow):
        cache = tmp_path / "suite.npz"
        victim = SUITE_ORDER[4]
        runner = FaultTolerantRunner(fail_fast=False)
        with inject_faults(FaultSpec(stage=f"flow/{victim}", times=1)):
            suite, stats = build_suite_dataset(
                SCALE, cache_path=cache, runner=runner
            )
        assert len(suite.designs) == 13
        assert victim not in suite.names
        assert runner.failures.units() == [f"flow/{victim}"]
        rec = runner.failures.records[0]
        assert rec.error_type == "FaultInjected"
        # the store holds every design that finished, and nothing for the victim
        store = CheckpointStore(checkpoint_dir_for(cache))
        assert _checkpointed(store) == [n for n in SUITE_ORDER if n != victim]

        # next run completes the missing design and the store
        counted_run_flow.clear()
        suite2, _ = build_suite_dataset(SCALE, cache_path=cache)
        assert counted_run_flow == [victim]
        assert len(suite2.designs) == 14
        assert _checkpointed(store) == list(SUITE_ORDER)

    def test_nan_features_degrade_suite_instead_of_aborting(
        self, tmp_path, monkeypatch
    ):
        victim = SUITE_ORDER[3]
        real = pipeline.run_flow

        def poisoned(recipe, *args, **kwargs):
            result = real(recipe, *args, **kwargs)
            if recipe.name == victim:
                result.X[0, 0] = np.nan
            return result

        monkeypatch.setattr(pipeline, "run_flow", poisoned)
        runner = FaultTolerantRunner(fail_fast=False)
        suite, _ = build_suite_dataset(
            SCALE, cache_path=tmp_path / "suite.npz", runner=runner
        )
        # validation runs inside the unit: the NaN design is recorded and
        # skipped like any other unit failure, not a suite-wide abort
        assert victim not in suite.names
        assert len(suite.designs) == 13
        assert runner.failures.units() == [f"flow/{victim}"]
        assert runner.failures.records[0].error_type == "ValidationError"

    def test_all_designs_failing_raises(self, tmp_path):
        runner = FaultTolerantRunner(fail_fast=False)
        with inject_faults(FaultSpec(stage="flow/*", times=14)):
            with pytest.raises(StageFailure, match="every design"):
                build_suite_dataset(SCALE, cache_path=tmp_path / "s.npz",
                                    runner=runner)


# -- experiment-level fault tolerance ----------------------------------------------


class _DummyModel:
    """Deterministic stand-in estimator: scores by the first feature."""

    fit_calls = 0

    def fit(self, X, y):
        _DummyModel.fit_calls += 1
        return self

    def predict_proba(self, X):
        s = (X[:, 0] - X[:, 0].min()) / (np.ptp(X[:, 0]) + 1e-9)
        return np.stack([1 - s, s], axis=1)


def _dummy_spec() -> ModelSpec:
    return ModelSpec(name="Dummy", factory=_DummyModel)


def _synthetic_suite(with_adhoc: bool = False) -> SuiteDataset:
    rng = np.random.default_rng(0)
    designs = []
    specs = [("d0", 0), ("d1", 0), ("d2", 1), ("d3", 1)]
    if with_adhoc:
        specs.append(("stray", ADHOC_GROUP))
    for name, group in specs:
        n = 25
        X = rng.normal(size=(n, NUM_FEATURES))
        y = (X[:, 0] > 0.8).astype(np.int8)
        y[:3] = 1  # guarantee positives
        designs.append(
            DesignDataset(name=name, group=group, X=X, y=y, grid_nx=5, grid_ny=5)
        )
    return SuiteDataset(designs)


class TestExperimentFaultTolerance:
    def test_failed_unit_degrades_table(self):
        suite = _synthetic_suite()
        runner = FaultTolerantRunner(fail_fast=False)
        with inject_faults(FaultSpec(stage="experiment/Dummy__g0", times=1)):
            result = run_experiment(
                suite, [_dummy_spec()], tune=False, runner=runner
            )
        assert runner.failures.units() == ["experiment/Dummy__g0"]
        scored = {s.design for s in result.scores}
        assert scored == {"d2", "d3"}  # group-1 designs still scored

    def test_checkpointed_experiment_resumes_without_refitting(self, tmp_path):
        suite = _synthetic_suite()
        ckpt = tmp_path / "exp.ckpt"
        _DummyModel.fit_calls = 0
        first = run_experiment(
            suite, [_dummy_spec()], tune=False, checkpoint_dir=ckpt
        )
        assert _DummyModel.fit_calls == 2  # one fit per group

        second = run_experiment(
            suite, [_dummy_spec()], tune=False, checkpoint_dir=ckpt
        )
        assert _DummyModel.fit_calls == 2  # resumed: zero new fits
        assert [
            (s.design, s.metrics.a_prc) for s in second.scores
        ] == [(s.design, s.metrics.a_prc) for s in first.scores]

    def test_stale_checkpoints_from_degraded_suite_are_rejected(self, tmp_path):
        # one design's flow failed -> the grid ran (and checkpointed) against
        # a degraded suite; resuming with the repaired suite must recompute
        # every unit, not reuse the stale ones
        full = _synthetic_suite()
        degraded = SuiteDataset(full.designs[:3])  # d3 "failed" that run
        ckpt = tmp_path / "exp.ckpt"
        _DummyModel.fit_calls = 0
        run_experiment(degraded, [_dummy_spec()], tune=False, checkpoint_dir=ckpt)
        fits_degraded = _DummyModel.fit_calls
        assert fits_degraded == 2  # both groups still present in the suite

        result = run_experiment(
            full, [_dummy_spec()], tune=False, checkpoint_dir=ckpt
        )
        assert _DummyModel.fit_calls == fits_degraded + 2  # all units refit
        assert {s.design for s in result.scores} == {"d0", "d1", "d2", "d3"}

        # and the repaired-suite checkpoints now resume cleanly
        run_experiment(full, [_dummy_spec()], tune=False, checkpoint_dir=ckpt)
        assert _DummyModel.fit_calls == fits_degraded + 2

    def test_checkpoints_bound_to_protocol_knobs(self, tmp_path):
        suite = _synthetic_suite()
        ckpt = tmp_path / "exp.ckpt"
        _DummyModel.fit_calls = 0
        run_experiment(
            suite, [_dummy_spec()], target_fpr=0.005, tune=False,
            checkpoint_dir=ckpt,
        )
        assert _DummyModel.fit_calls == 2
        run_experiment(
            suite, [_dummy_spec()], target_fpr=0.01, tune=False,
            checkpoint_dir=ckpt,
        )
        assert _DummyModel.fit_calls == 4  # different FPR* -> no reuse

    def test_interrupted_grid_resumes_only_missing_units(self, tmp_path):
        suite = _synthetic_suite()
        ckpt = tmp_path / "exp.ckpt"
        runner = FaultTolerantRunner(fail_fast=False)
        _DummyModel.fit_calls = 0
        with inject_faults(FaultSpec(stage="experiment/Dummy__g1", times=1)):
            run_experiment(
                suite, [_dummy_spec()], tune=False,
                runner=runner, checkpoint_dir=ckpt,
            )
        assert _DummyModel.fit_calls == 1

        result = run_experiment(
            suite, [_dummy_spec()], tune=False, checkpoint_dir=ckpt
        )
        assert _DummyModel.fit_calls == 2  # only the failed unit re-ran
        assert {s.design for s in result.scores} == {"d0", "d1", "d2", "d3"}


    def test_unreadable_unit_checkpoint_is_recomputed_and_kept(self, tmp_path, monkeypatch):
        # a transient read error (EACCES, an NFS hiccup) re-runs the unit this
        # time, but must not invalidate its sound checkpoint
        suite = _synthetic_suite()
        ckpt = tmp_path / "exp.ckpt"
        _DummyModel.fit_calls = 0
        first = run_experiment(suite, [_dummy_spec()], tune=False, checkpoint_dir=ckpt)
        victim = ckpt / "Dummy__g0.json"
        real_read = Path.read_bytes
        denied_once = []

        def denied(path):
            if path == victim and not denied_once:
                denied_once.append(path)
                raise PermissionError("transient EACCES")
            return real_read(path)

        tracer = Tracer()
        with monkeypatch.context() as m, activate(tracer):
            m.setattr(Path, "read_bytes", denied)
            second = run_experiment(
                suite, [_dummy_spec()], tune=False, checkpoint_dir=ckpt
            )
        assert denied_once == [victim]
        assert _DummyModel.fit_calls == 3  # only the unreadable unit refit
        assert tracer.counters.get("checkpoint.invalidated", 0) == 0
        assert tracer.counters["checkpoint.resume_skips"] == 1
        CheckpointStore(ckpt).load_json("Dummy__g0.json")  # kept, and sound
        assert [(s.design, s.metrics.a_prc) for s in second.scores] == [
            (s.design, s.metrics.a_prc) for s in first.scores
        ]


class TestAdhocGroupSentinel:
    def test_safe_group_returns_sentinel(self):
        assert pipeline._safe_group("not_in_suite") == ADHOC_GROUP
        assert pipeline._safe_group("des_perf_1") == 3

    def test_sentinel_group_never_forms_a_test_fold(self):
        suite = _synthetic_suite(with_adhoc=True)
        result = run_experiment(suite, [_dummy_spec()], tune=False)
        assert {s.design for s in result.scores} == {"d0", "d1", "d2", "d3"}
        assert "stray" not in result.design_order
