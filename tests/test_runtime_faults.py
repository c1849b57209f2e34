"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.runtime import (
    CacheCorruptionError,
    CheckpointStore,
    FaultInjected,
    FaultSpec,
    FaultTolerantRunner,
    inject_faults,
)
from repro.runtime import faults


def _never():  # module-level: a budgeted unit is pickled to its worker
    return "never"


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(stage="x", kind="explode")

    def test_fires_bounded_times(self):
        spec = FaultSpec(stage="flow/a", times=2)
        hits = [spec.should_fire("flow/a") for _ in range(4)]
        assert hits == [True, True, False, False]

    def test_glob_matching(self):
        spec = FaultSpec(stage="flow/*", times=10)
        assert spec.should_fire("flow/mult_1")
        assert spec.should_fire("flow/fft_b")
        assert not spec.should_fire("experiment/RF__g0")


class TestInjection:
    def test_error_fault_raises_inside_block(self):
        with inject_faults(FaultSpec(stage="s/u", times=1)) as plan:
            with pytest.raises(FaultInjected, match="injected fault @ s/u"):
                faults.fire("s/u")
            faults.fire("s/u")  # disarmed after `times` firings
        assert plan.triggered == [("s/u", "error")]

    def test_custom_exception(self):
        with inject_faults(
            FaultSpec(stage="s/u", exception=OSError, message="disk gone")
        ):
            with pytest.raises(OSError, match="disk gone"):
                faults.fire("s/u")

    def test_no_active_plan_is_noop(self):
        faults.fire("anything")  # must not raise outside inject_faults

    def test_plans_do_not_nest(self):
        with inject_faults(FaultSpec(stage="a")):
            with pytest.raises(RuntimeError, match="nest"):
                with inject_faults(FaultSpec(stage="b")):
                    pass

    def test_corrupt_fault_trips_checkpoint_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        with inject_faults(FaultSpec(stage="checkpoint/k.bin", kind="corrupt")) as plan:
            store.save_bytes("k.bin", b"payload-bytes-here")
        assert plan.triggered == [("checkpoint/k.bin", "corrupt")]
        assert store.has("k.bin")  # looks complete...
        with pytest.raises(CacheCorruptionError, match="checksum"):
            store.load_bytes("k.bin")  # ...but is detected on load

    def test_injected_hang_trips_serial_runner_timeout(self):
        # a budgeted jobs=1 attempt runs on one worker: the hang fires there
        # and the timeout kills it
        with inject_faults(
            FaultSpec(stage="flow/slow", kind="hang", delay_s=30.0)
        ) as plan:
            runner = FaultTolerantRunner(timeout_s=0.2)
            out = runner.run_unit("flow", "slow", _never)
        assert not out.ok
        assert (out.failure.kind, out.failure.error_type) == ("timeout", "StageTimeout")
        assert plan.triggered == [("flow/slow", "hang")]
