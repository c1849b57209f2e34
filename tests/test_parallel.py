"""ParallelRunner: process-pool units with serial semantics preserved.

Covers the runner in isolation (ordering, timeouts, fail-fast vs.
degrade, parent-side callbacks) and end-to-end through
the suite builder and the experiment grid, where a parallel run must be
*indistinguishable* from a serial one: byte-identical suite store, equal
suite fingerprint, equal Table II (timing rows excluded — they are live CPU
measurements).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.evaluation import format_table2
from repro.core.experiment import run_experiment, suite_fingerprint
from repro.core.models import model_zoo
from repro.core.pipeline import build_suite_dataset, checkpoint_dir_for
from repro.runtime import CheckpointStore, FaultTolerantRunner, ParallelRunner
from repro.runtime.errors import StageFailure
from tests.breaking import breaking

SCALE = 0.3


# Unit bodies must be module-level: they are pickled to worker processes.

def _double(x):
    return 2 * x


def _worker_pid():
    return os.getpid()


def _boom():
    raise RuntimeError("boom")


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


class TestParallelRunnerSemantics:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)

    def test_outcomes_in_input_order(self):
        runner = ParallelRunner(3)
        units = [(f"u{i}", _double, (i,), {}) for i in range(6)]
        out = runner.run_units("stage", units)
        assert all(o.ok for o in out)
        assert [o.value for o in out] == [0, 2, 4, 6, 8, 10]

    def test_jobs_one_matches_serial_path(self):
        runner = ParallelRunner(1)
        out = runner.run_units("stage", [("u0", _double, (5,), {})])
        assert [o.value for o in out] == [10]

    def test_units_run_in_workers_callbacks_in_parent(self):
        runner = ParallelRunner(2)
        callback_pids = []
        out = runner.run_units(
            "stage",
            [(f"u{i}", _worker_pid, (), {}) for i in range(3)],
            on_result=lambda unit, o: callback_pids.append(os.getpid()),
        )
        # on_result (where checkpoint writes live) stays in this process...
        assert set(callback_pids) == {os.getpid()}
        # ...while the unit bodies actually ran elsewhere
        assert all(o.value != os.getpid() for o in out)

    def test_degraded_unit_recorded_others_survive(self):
        runner = ParallelRunner(2)
        out = runner.run_units(
            "stage",
            [
                ("good", _double, (21,), {}),
                ("bad", _boom, (), {}),
                ("also_good", _double, (1,), {}),
            ],
        )
        assert out[0].value == 42 and out[2].value == 2
        assert not out[1].ok
        assert runner.failures.units() == ["stage/bad"]
        assert runner.failures.records[0].error_type == "RuntimeError"

    def test_fail_fast_raises_stage_failure(self):
        runner = ParallelRunner(2, fail_fast=True)
        with pytest.raises(StageFailure):
            runner.run_units(
                "stage",
                [("bad", _boom, (), {}), ("good", _double, (1,), {})],
            )

    def test_worker_timeout_recorded_as_stage_timeout(self):
        runner = ParallelRunner(2, timeout_s=0.2)
        out = runner.run_units(
            "stage",
            [
                ("slow", _sleep_then, (2.0, "late"), {}),
                ("fast", _double, (3,), {}),
            ],
        )
        assert not out[0].ok
        assert out[0].failure.error_type == "StageTimeout"
        assert out[1].value == 6

    def test_fast_unit_beats_its_timeout(self):
        runner = ParallelRunner(2, timeout_s=30.0)
        out = runner.run_units(
            "stage", [("quick", _sleep_then, (0.01, "ok"), {})] * 2
        )
        assert [o.value for o in out] == ["ok", "ok"]


def _table_without_timing_rows(result) -> str:
    """Table II minus the CPU-time rows, which are live measurements."""
    return "\n".join(
        line
        for line in format_table2(result).splitlines()
        if not line.startswith(("Train (min)", "Pred (min)"))
    )


class TestParallelDeterminism:
    def test_suite_store_byte_identical(self, tmp_path):
        serial_npz = tmp_path / "serial.npz"
        parallel_npz = tmp_path / "parallel.npz"
        budgeted_npz = tmp_path / "budgeted.npz"
        s_suite, s_stats = build_suite_dataset(
            SCALE, cache_path=serial_npz,
            runner=FaultTolerantRunner(fail_fast=True),
        )
        p_suite, p_stats = build_suite_dataset(
            SCALE, cache_path=parallel_npz,
            runner=ParallelRunner(3, fail_fast=True),
        )
        # a serial budgeted run flows every design on its one worker
        b_suite, b_stats = build_suite_dataset(
            SCALE, cache_path=budgeted_npz,
            runner=FaultTolerantRunner(fail_fast=True, timeout_s=600),
        )
        serial_files = CheckpointStore(checkpoint_dir_for(serial_npz)).file_digests()
        assert len(serial_files) == 14 + 1  # one checkpoint per design + manifest
        assert serial_files == CheckpointStore(checkpoint_dir_for(parallel_npz)).file_digests()
        assert serial_files == CheckpointStore(checkpoint_dir_for(budgeted_npz)).file_digests()
        assert s_stats == p_stats == b_stats
        assert suite_fingerprint(s_suite, 0.005, True) == suite_fingerprint(
            p_suite, 0.005, True
        ) == suite_fingerprint(b_suite, 0.005, True)

    def test_experiment_table_matches_serial(self, mini_suite):
        models = [m for m in model_zoo("fast") if m.name in ("RUSBoost", "RF")]
        serial = run_experiment(
            mini_suite, models, tune=False,
            runner=FaultTolerantRunner(fail_fast=True),
        )
        parallel = run_experiment(
            mini_suite, models, tune=False,
            runner=ParallelRunner(3, fail_fast=True),
        )
        budgeted = run_experiment(
            mini_suite, models, tune=False,
            runner=FaultTolerantRunner(fail_fast=True, timeout_s=600),
        )
        assert _table_without_timing_rows(serial) == _table_without_timing_rows(
            parallel
        ) == _table_without_timing_rows(budgeted)

    def test_suite_degrades_and_checkpoints_under_injected_fault(
        self, tmp_path, monkeypatch
    ):
        import repro.core.pipeline as pipeline

        cache = tmp_path / "suite.npz"
        runner = ParallelRunner(2)  # not fail-fast: degrade, don't abort
        # the workers inherit the patched flow; mult_1's raises in its worker
        monkeypatch.setattr(pipeline, "run_flow", breaking(
            pipeline.run_flow, when=lambda recipe: recipe.name == "mult_1"
        ))
        suite, stats = build_suite_dataset(SCALE, cache_path=cache, runner=runner)
        assert "mult_1" not in suite.names
        assert runner.failures.units() == ["flow/mult_1"]
        assert runner.failures.records[0].error_type == "UnitBroken"
        # the designs that did finish were checkpointed by the parent
        ckpt_dir = checkpoint_dir_for(cache)
        saved = {p.name for p in ckpt_dir.glob("*.npz")}
        assert f"{suite.names[0]}.npz" in saved
        assert "mult_1.npz" not in saved

    def test_experiment_checkpoints_resume_after_parallel_run(self, mini_suite, tmp_path):
        models = [m for m in model_zoo("fast") if m.name == "RUSBoost"]
        first = run_experiment(
            mini_suite, models, tune=False,
            runner=ParallelRunner(2, fail_fast=True),
            checkpoint_dir=tmp_path / "ckpt",
        )
        # resumed serially from the parallel run's parent-written checkpoints
        resumed = run_experiment(
            mini_suite, models, tune=False,
            runner=FaultTolerantRunner(fail_fast=True),
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert _table_without_timing_rows(first) == _table_without_timing_rows(
            resumed
        )
        # the resumed run reused CPU-time numbers verbatim from checkpoints
        assert resumed.run_stats[0].train_minutes == pytest.approx(
            first.run_stats[0].train_minutes
        )
