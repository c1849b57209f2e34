"""Tests for the fault-tolerant runner: one attempt per unit, timeouts, failure log."""

import json
import signal
import time

import pytest

from repro.runtime import (
    FailureLog,
    FailureRecord,
    FaultTolerantRunner,
    ParallelRunner,
    ShutdownRequested,
    StageFailure,
    StageTimeout,
)
from repro.runtime.telemetry import Tracer, activate


# Budgeted units run on a worker process: their bodies must be module-level.

def _quick():
    return "quick"


def _raise_own_timeout():
    raise TimeoutError("inner")


def _busy_then_mark(seconds, marker):
    """Busy-wait ``seconds`` of wall clock, then append a line to ``marker``."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    with open(marker, "a") as fh:
        fh.write("finished\n")


class TestRetryPolicy:
    """The attempt policy: one attempt per unit, bounded by ``timeout_s``."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"timeout_s": 0.0}, {"timeout_s": -5.0}, {"timeout_s": float("nan")}],
    )
    def test_rejects_invalid_budgets(self, kwargs):
        # a zero, negative or NaN budget would time out every attempt at once
        with pytest.raises(ValueError, match="timeout_s"):
            FaultTolerantRunner(**kwargs)
        with pytest.raises(ValueError, match="timeout_s"):
            ParallelRunner(2, **kwargs)


class TestRunner:
    def test_success_passthrough(self):
        runner = FaultTolerantRunner()
        out = runner.run_unit("s", "u", lambda a, b: a + b, 2, b=3)
        assert out.ok and out.value == 5
        assert not runner.failures

    def test_exhausted_budget_records_failure(self):
        calls = []

        def bad():
            calls.append(1)
            return 1 / 0

        runner = FaultTolerantRunner()
        out = runner.run_unit("flow", "bad", bad)
        assert not out.ok
        assert out.failure is not None
        assert calls == [1]  # one attempt: a unit that raised is not run again
        rec = runner.failures.records[0]
        assert (rec.stage, rec.unit) == ("flow", "bad")
        assert rec.error_type == "ZeroDivisionError"

    def test_fail_fast_raises_stage_failure_with_cause(self):
        runner = FaultTolerantRunner(fail_fast=True)
        with pytest.raises(StageFailure) as exc_info:
            runner.run_unit("flow", "boom", lambda: 1 / 0)
        assert isinstance(exc_info.value.__cause__, ZeroDivisionError)
        assert exc_info.value.stage == "flow"
        assert exc_info.value.unit == "boom"
        assert runner.failures  # still recorded before raising

    def test_timeout_enforced(self):
        runner = FaultTolerantRunner(timeout_s=0.05)
        out = runner.run_unit("slow", "u", time.sleep, 5.0)
        assert not out.ok
        assert out.failure.error_type == "StageTimeout"

    def test_timeout_fail_fast_raises_stage_timeout(self):
        runner = FaultTolerantRunner(fail_fast=True, timeout_s=0.05)
        with pytest.raises(StageTimeout):
            runner.run_unit("slow", "u", time.sleep, 5.0)

    def test_fast_unit_passes_under_timeout(self):
        runner = FaultTolerantRunner(timeout_s=5.0)
        out = runner.run_unit("s", "u", _quick)
        assert out.ok and out.value == "quick"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timed_out_attempt_stops_at_its_budget(self, jobs, tmp_path):
        # an overdue attempt is killed, not abandoned: its body does not
        # finish after run_units returned
        marker = tmp_path / "marker"
        marker.touch()
        runner = FaultTolerantRunner(jobs=jobs, timeout_s=0.3)
        out = runner.run_units("s", [("busy", _busy_then_mark, (1.0, str(marker)), {})])
        returned = time.monotonic()
        assert out[0].failure.kind == "timeout"
        time.sleep(max(0.0, returned + 1.5 - time.monotonic()))
        assert marker.read_text() == ""

    def test_unit_raising_timeout_error_is_ordinary_failure(self):
        # On 3.11+ builtin TimeoutError aliases concurrent.futures.TimeoutError;
        # a unit's own timeout (socket/asyncio) must stay a normal unit failure
        # — with timeout_s=None it used to be misread as a stage timeout and
        # crash _describe on formatting None.
        def unit():
            raise TimeoutError("socket timed out")

        runner = FaultTolerantRunner()
        out = runner.run_unit("s", "u", unit)
        assert not out.ok
        rec = runner.failures.records[0]
        assert rec.error_type == "TimeoutError"
        assert "socket timed out" in rec.message

    def test_unit_raising_timeout_error_under_wall_clock_budget(self):
        runner = FaultTolerantRunner(timeout_s=5.0)
        out = runner.run_unit("s", "u", _raise_own_timeout)
        assert not out.ok
        assert out.failure.error_type == "TimeoutError"  # not StageTimeout

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        runner = FaultTolerantRunner()
        with pytest.raises(KeyboardInterrupt):
            runner.run_unit("s", "u", interrupted)
        assert not runner.failures  # not a unit failure

    def test_nested_shutdown_propagates(self):
        # a unit that runs its own batch (a forest fit inside a report unit)
        # raises the inner batch's ShutdownRequested: the outer run stops
        # too, instead of recording the unit as failed
        stop = ShutdownRequested("forest", signal.SIGTERM, ["trees15-29"])

        def nested_batch_stopped():
            raise stop

        runner = FaultTolerantRunner()
        tracer = Tracer()
        with activate(tracer), pytest.raises(ShutdownRequested) as exc:
            runner.run_unit("report", "mult_b", nested_batch_stopped)
        assert exc.value is stop
        assert not runner.failures
        assert tracer.counters["runner.failed_units"] == 0


class TestFailureLog:
    def _rec(self, unit="u") -> FailureRecord:
        return FailureRecord(
            stage="flow", unit=unit,
            error_type="RuntimeError", message="boom", elapsed_s=1.5,
        )

    def test_summary_and_units(self):
        log = FailureLog()
        assert log.summary() == "no failures"
        log.record(self._rec("a"))
        log.record(self._rec("b"))
        assert len(log) == 2
        assert log.units() == ["flow/a", "flow/b"]
        assert "2 failed unit(s)" in log.summary()
        assert "flow/a: RuntimeError — boom" in log.summary()

    def test_to_dict_rounds_attempt_duration(self):
        rec = FailureRecord(
            stage="flow", unit="u", error_type="E", message="m",
            elapsed_s=1.23456, last_attempt_s=0.98765, run_id="r-1",
        )
        doc = rec.to_dict()
        assert doc["elapsed_s"] == 1.235
        assert doc["last_attempt_s"] == 0.988
        assert doc["run_id"] == "r-1"
        # telemetry cross-reference fields always serialize, defaults included
        doc = json.loads(json.dumps(self._rec().to_dict()))
        assert doc["unit"] == "u"
        assert "attempts" not in doc  # one attempt per unit: nothing to count
        assert doc["last_attempt_s"] == 0.0
        assert doc["run_id"] == ""
