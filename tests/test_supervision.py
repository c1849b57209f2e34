"""Crash-safe execution on owned workers: crashes, timeouts, quarantine, shutdown.

Covers the worker layer in isolation (crash recovery charged to the dead
worker's unit alone, poison-task quarantine, hung attempts killed by the
timeout, no worker outliving a batch), the graceful SIGTERM/SIGINT path
(serial and parallel runners, the resumable CLI exit code), and the
durability satellites (orphan temp sweep, failure-record kinds).

The acceptance bar, per the crash-safety design: SIGKILLing a worker
mid-suite never aborts the run — the affected design is re-dispatched on a
fresh worker or quarantined as a ``worker_crash`` failure, and a subsequent
``--resume`` completes with output byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench.suite import SUITE_ORDER
from repro.core.pipeline import build_suite_dataset, checkpoint_dir_for
from repro.runtime import (
    CheckpointStore,
    FaultTolerantRunner,
    ParallelRunner,
    load_manifest,
    sweep_orphan_temps,
)
from repro.runtime import faults as faults_mod
from repro.runtime.errors import (
    ShutdownRequested,
    StageFailure,
    StageTimeout,
    WorkerCrashError,
)
from repro.runtime.faults import FaultSpec, execute_directive, inject_faults
from repro.runtime.runner import FailureRecord
from repro.runtime.supervision import (
    graceful_shutdown,
    shutdown_requested,
    shutdown_signum,
)
from repro.runtime.telemetry import Tracer, activate, build_manifest

SCALE = 0.3


# Unit bodies must be module-level: they are pickled to worker processes.

def _double(x):
    return 2 * x


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _touch_then_sleep(flag, seconds, value):
    Path(flag).touch()
    time.sleep(seconds)
    return value


def _sleep_then_touch(seconds, marker):
    time.sleep(seconds)
    Path(marker).touch()
    return "late"


def _log_touch_then_sleep(log, flag, seconds, value):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _touch_then_sleep(flag, seconds, value)


def _die_once_flagged(flag):
    """SIGKILL this worker once ``flag`` exists (a co-running unit started)."""
    while not Path(flag).exists():
        time.sleep(0.005)
    os.kill(os.getpid(), signal.SIGKILL)


def _blas_threads():
    from repro.runtime import blas

    return blas.thread_counts()


def _units(n=4):
    return [(f"u{i}", _double, (i,), {}) for i in range(n)]


def _expected(n=4):
    return [2 * i for i in range(n)]


def _supervised(**kw):
    return ParallelRunner(jobs=2, **kw)


class TestSupervisionConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(2, quarantine_threshold=0)
        with pytest.raises(ValueError):
            FaultTolerantRunner(jobs=2, quarantine_threshold=0)

    @pytest.mark.parametrize(
        "knob",
        ["max_pool_respawns", "heartbeat_s", "respawn_backoff_s", "policy", "sleep"],
    )
    def test_pool_knobs_are_gone(self, knob):
        # owned workers leave no pool to respawn and no heartbeat to tune,
        # and one attempt per unit leaves no retry policy or sleep to inject
        with pytest.raises(TypeError):
            FaultTolerantRunner(jobs=2, **{knob: 1})
        with pytest.raises(TypeError):
            ParallelRunner(2, **{knob: 1})


class TestWorkerCrashRecovery:
    def test_single_kill_recovered_without_failure(self):
        runner = _supervised()
        with activate(Tracer(run_id="crash")) as tracer:
            with inject_faults(FaultSpec(stage="stage/u1", kind="kill", times=1)) as plan:
                out = runner.run_units("stage", _units())
        assert [o.value for o in out] == _expected()
        assert not runner.failures
        assert plan.triggered == [("stage/u1", "kill")]
        assert tracer.counters["runner.worker_crashes"] == 1
        assert tracer.counters["runner.quarantined"] == 0

    def test_crashed_one_attempt_unit_is_redispatched(self):
        # a unit gets one attempt, yet a crashed one runs again on a fresh
        # worker: a dead worker is an infrastructure failure, not a unit
        # failure.  A budget puts even a jobs=1 run on its one worker.
        runner = FaultTolerantRunner(timeout_s=60)
        with activate(Tracer(run_id="redispatch")) as tracer:
            with inject_faults(FaultSpec(stage="stage/u1", kind="kill", times=1)) as plan:
                out = runner.run_units("stage", _units())
        assert [o.value for o in out] == _expected()
        assert not runner.failures
        assert plan.triggered == [("stage/u1", "kill")]
        assert tracer.counters["runner.worker_crashes"] == 1

    def test_poison_unit_quarantined_innocents_survive(self):
        # each worker runs one unit, so a crash is charged to the poison
        # unit alone however the co-running units are scheduled
        runner = _supervised(quarantine_threshold=2)
        with activate(Tracer(run_id="poison")) as tracer:
            with inject_faults(
                FaultSpec(stage="stage/u0", kind="kill", times=4, delay_s=0.3)
            ):
                out = runner.run_units("stage", _units())
        assert not out[0].ok
        assert [o.value for o in out[1:]] == _expected()[1:]
        rec = runner.failures.records[0]
        assert rec.unit == "u0"
        assert rec.kind == "worker_crash"
        assert rec.error_type == "WorkerCrashError"
        assert "quarantined" in rec.message
        assert tracer.counters["runner.quarantined"] == 1

    def test_innocent_co_resident_unit_never_charged(self, tmp_path):
        # the poison unit kills its worker only after the innocent one has
        # started in the other worker, so both are in flight at the crash
        flag = str(tmp_path / "innocent-started")
        runner = _supervised(quarantine_threshold=1)
        with activate(Tracer(run_id="innocent")) as tracer:
            out = runner.run_units("stage", [
                ("poison", _die_once_flagged, (flag,), {}),
                ("innocent", _touch_then_sleep, (flag, 1.0, "ok"), {}),
            ])
        assert not out[0].ok
        assert out[1].value == "ok"
        assert runner.failures.units() == ["stage/poison"]
        assert tracer.counters["runner.quarantined"] == 1

    def test_fail_fast_raises_worker_crash_error(self):
        runner = _supervised(quarantine_threshold=1, fail_fast=True)
        with inject_faults(
            FaultSpec(stage="stage/u0", kind="kill", times=4, delay_s=0.3)
        ):
            with pytest.raises(WorkerCrashError):
                runner.run_units("stage", _units())

    def test_inline_runner_never_consumes_worker_faults(self):
        # jobs=1 runs in this process: a kill directive must stay armed,
        # never fire (it would SIGKILL the test process itself)
        runner = FaultTolerantRunner(jobs=1)
        with inject_faults(FaultSpec(stage="stage/u1", kind="kill", times=1)) as plan:
            out = runner.run_units("stage", _units())
        assert [o.value for o in out] == _expected()
        assert not runner.failures
        assert plan.triggered == []

    def test_killed_unit_costs_only_its_own_attempt(self, tmp_path):
        # the co-running unit logs each start: a worker's death must never
        # touch it, so it is dispatched exactly once
        flag, log = str(tmp_path / "started"), tmp_path / "starts.log"
        runner = _supervised(quarantine_threshold=2)
        with activate(Tracer(run_id="one-attempt")) as tracer:
            out = runner.run_units("stage", [
                ("poison", _die_once_flagged, (flag,), {}),
                ("co", _log_touch_then_sleep, (str(log), flag, 1.0, "ok"), {}),
            ])
        assert out[1].value == "ok"
        assert len(log.read_text().splitlines()) == 1
        assert runner.failures.units() == ["stage/poison"]
        assert tracer.counters["runner.worker_crashes"] == 2


class TestWorkerBlasThreads:
    def test_pool_workers_run_one_blas_thread_parent_unchanged(self):
        import numpy  # noqa: F401 - loads numpy's OpenBLAS into this process
        import scipy.linalg  # noqa: F401 - and scipy's

        from repro.runtime import blas

        before = blas.thread_counts()
        out = _supervised().run_units(
            "stage", [(f"u{i}", _blas_threads, (), {}) for i in range(2)]
        )
        # a budget puts even a one-unit batch on a worker: pinned under
        # jobs=2, with the parent's counts under jobs=1
        out += ParallelRunner(2, timeout_s=60).run_units(
            "stage", [("one", _blas_threads, (), {})]
        )
        for outcome in out:
            assert outcome.value and set(outcome.value.values()) == {1}
        serial = FaultTolerantRunner(timeout_s=60).run_unit(
            "stage", "one", _blas_threads
        )
        assert serial.value == before
        assert blas.thread_counts() == before


class TestPooledTimeout:
    def test_hung_unit_fails_alone(self):
        # the timeout knows which unit its worker ran: only the hung unit
        # fails, the others finish on their first attempt
        runner = _supervised(timeout_s=0.5)
        with inject_faults(
            FaultSpec(stage="stage/u2", kind="hang", times=1, delay_s=30.0)
        ):
            out = runner.run_units("stage", _units())
        assert not out[2].ok
        assert [o.value for i, o in enumerate(out) if i != 2] == [0, 2, 6]
        assert runner.failures.units() == ["stage/u2"]
        rec = runner.failures.records[0]
        assert (rec.kind, rec.error_type) == ("timeout", "StageTimeout")

    def test_timed_out_attempt_is_stopped(self, tmp_path):
        # the body of a timed-out attempt must not keep running in its
        # worker: the marker it would write after 1 s never appears
        marker = tmp_path / "late-marker"
        runner = ParallelRunner(2, timeout_s=0.5)
        units = [("slow", _sleep_then_touch, (1.0, str(marker)), {})]
        units += [(f"busy{i}", _sleep_then, (0.1, i), {}) for i in range(30)]
        t0 = time.monotonic()
        out = runner.run_units("stage", units)
        assert out[0].failure.kind == "timeout"
        assert [o.value for o in out[1:]] == list(range(30))
        time.sleep(max(0.0, t0 + 1.5 - time.monotonic()))
        assert not marker.exists()


class TestNoWorkerOutlivesRun:
    def test_normal_return(self):
        assert [o.value for o in _supervised().run_units("stage", _units())] == _expected()
        assert multiprocessing.active_children() == []

    def test_fail_fast_stage_failure_with_a_unit_mid_run(self):
        runner = _supervised(fail_fast=True)
        units = [("bad", _raise_boom, (), {}), ("slow", _sleep_then, (30.0, 0), {})]
        t0 = time.monotonic()
        with pytest.raises(StageFailure):
            runner.run_units("stage", units)
        assert time.monotonic() - t0 < 20.0  # the slow unit was not waited for
        assert multiprocessing.active_children() == []

    def test_fail_fast_worker_crash(self):
        runner = _supervised(quarantine_threshold=1, fail_fast=True)
        units = [("u0", _double, (0,), {}), ("slow", _sleep_then, (30.0, 0), {})]
        with inject_faults(FaultSpec(stage="stage/u0", kind="kill", times=1)):
            with pytest.raises(WorkerCrashError):
                runner.run_units("stage", units)
        assert multiprocessing.active_children() == []

    def test_on_result_raises(self):
        def explode(unit, outcome):
            raise RuntimeError(f"callback failed on {unit}")

        units = [("fast", _double, (1,), {}), ("slow", _sleep_then, (30.0, 0), {})]
        with pytest.raises(RuntimeError, match="callback failed on fast"):
            _supervised().run_units("stage", units, on_result=explode)
        assert multiprocessing.active_children() == []


class TestWorkerFaultDirectives:
    def test_kill_and_hang_are_valid_kinds(self):
        assert FaultSpec(stage="s", kind="kill").kind == "kill"
        assert FaultSpec(stage="s", kind="hang").kind == "hang"
        with pytest.raises(ValueError):
            FaultSpec(stage="s", kind="explode")

    def test_fire_ignores_worker_side_faults(self):
        # a serial runner SIGKILLing itself would take the test process down
        with inject_faults(FaultSpec(stage="s/u", kind="kill")) as plan:
            faults_mod.fire("s/u")  # must not raise, must not consume
            assert plan.triggered == []
            assert plan.worker_directive("s/u") == ("kill", 0.05)
            assert plan.triggered == [("s/u", "kill")]
            # consumed: the spec is exhausted
            assert plan.worker_directive("s/u") is None

    def test_directive_hooks_inactive_without_plan(self):
        assert faults_mod.worker_directive("s/u") is None
        execute_directive(None)  # no-op

    def test_execute_hang_directive_sleeps(self):
        t0 = time.monotonic()
        execute_directive(("hang", 0.05))
        assert time.monotonic() - t0 >= 0.05


class TestGracefulShutdown:
    def _deliver(self, signum=signal.SIGTERM):
        os.kill(os.getpid(), signum)
        deadline = time.monotonic() + 2.0
        while not shutdown_requested() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert shutdown_requested()

    def test_serial_runner_stops_between_units(self):
        runner = FaultTolerantRunner()
        with graceful_shutdown():
            self._deliver()
            assert shutdown_signum() == signal.SIGTERM
            with pytest.raises(ShutdownRequested) as err:
                runner.run_units("stage", _units())
        assert err.value.pending == ["u0", "u1", "u2", "u3"]
        assert "--resume" in str(err.value)
        assert not shutdown_requested()  # handler scope ended

    def test_parallel_runner_drains_in_flight_abandons_rest(self):
        completed: list[str] = []
        runner = ParallelRunner(jobs=2)
        units = [(f"s{i}", _sleep_then, (0.4, i), {}) for i in range(4)]
        with graceful_shutdown():
            killer = threading.Timer(
                0.15, os.kill, (os.getpid(), signal.SIGTERM)
            )
            killer.start()
            try:
                with pytest.raises(ShutdownRequested) as err:
                    runner.run_units(
                        "stage", units, on_result=lambda u, o: completed.append(u)
                    )
            finally:
                killer.cancel()
        # the first wave (jobs=2) drained and was checkpointed via on_result;
        # everything undispatched was abandoned for --resume to pick up
        assert sorted(completed) == ["s0", "s1"]
        assert err.value.pending == ["s2", "s3"]
        assert err.value.signum == signal.SIGTERM

    def test_nested_activation_is_noop(self):
        with graceful_shutdown() as outer:
            with graceful_shutdown() as inner:
                assert not inner.requested
            # inner exit must not tear down the outer coordinator
            self._deliver()
            assert outer.requested
        assert not shutdown_requested()

    def test_signal_counter_bumped(self):
        with activate(Tracer(run_id="sig")) as tracer:
            with graceful_shutdown():
                self._deliver()
        assert tracer.counters["runner.signal_shutdowns"] == 1

    def test_second_signal_hard_exits(self):
        # a second SIGTERM must kill the process with the conventional
        # fatal-signal status, not keep draining
        code = (
            "import os, signal, sys, time\n"
            "from repro.runtime.supervision import graceful_shutdown\n"
            "with graceful_shutdown():\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    time.sleep(0.2)\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    time.sleep(10)\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGTERM
        assert "survived" not in proc.stdout


def _subprocess_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _store_digests(cache: Path) -> dict[str, str]:
    return CheckpointStore(checkpoint_dir_for(cache)).file_digests()


@pytest.fixture(scope="module")
def suite_baseline(tmp_path_factory) -> dict[str, str]:
    """Uninterrupted serial suite store: the byte-identity reference."""
    path = tmp_path_factory.mktemp("baseline") / "suite.npz"
    build_suite_dataset(
        SCALE, cache_path=path, runner=FaultTolerantRunner(fail_fast=True)
    )
    return _store_digests(path)


class TestCrashSafetyAcceptance:
    """The ISSUE's acceptance bar, end to end through the suite builder."""

    def test_worker_kill_mid_suite_degrades_then_resume_is_byte_identical(
        self, tmp_path, suite_baseline
    ):
        cache = tmp_path / "suite.npz"
        # mult_1's flow SIGKILLs its worker on every attempt: the run must
        # degrade to a structured worker_crash failure, never abort
        runner = _supervised(quarantine_threshold=2)
        tracer = Tracer(run_id="poison-suite")
        with activate(tracer), inject_faults(
            FaultSpec(stage="flow/mult_1", kind="kill", times=99, delay_s=0.3)
        ):
            suite, _stats = build_suite_dataset(
                SCALE, cache_path=cache, runner=runner
            )
        assert "mult_1" not in suite.names
        assert runner.failures.units() == ["flow/mult_1"]
        rec = runner.failures.records[0]
        assert rec.kind == "worker_crash"
        assert rec.error_type == "WorkerCrashError"
        # the run's manifest carries the quarantine and the failure record
        manifest = build_manifest(tracer, "suite")
        assert manifest["counters"]["runner.quarantined"] == 1
        assert [f["kind"] for f in manifest["failures"]] == ["worker_crash"]
        # every design that did finish was checkpointed by the parent
        ckpt_dir = checkpoint_dir_for(cache)
        saved = {p.stem for p in ckpt_dir.glob("*.npz")}
        assert saved == set(SUITE_ORDER) - {"mult_1"}

        # a stale atomic-write temp (a writer killed mid-write): the resume's
        # startup sweep removes and counts it
        orphan = ckpt_dir / ".mult_1.npz.tmp-orphan"
        orphan.write_bytes(b"torn write")
        two_hours_ago = time.time() - 7200
        os.utime(orphan, (two_hours_ago, two_hours_ago))

        # resume without faults: only the quarantined design is recomputed,
        # and the result is byte-identical to the uninterrupted run
        with activate(Tracer(run_id="resume")) as resumed:
            build_suite_dataset(
                SCALE, cache_path=cache, runner=FaultTolerantRunner(fail_fast=True)
            )
        assert not orphan.exists()
        assert resumed.counters["runtime.cache.orphans_swept"] == 1
        assert _store_digests(cache) == suite_baseline

    def test_one_kill_heals_one_hang_fails_then_resume_recomputes_it(
        self, tmp_path, suite_baseline
    ):
        # one SIGKILL and one hang past the timeout, each fired once: the
        # killed design is re-dispatched on a fresh worker and heals, the
        # hung one fails as one timeout record.  The timeout must exceed
        # the slowest honest flow at SCALE.
        cache = tmp_path / "suite.npz"
        runner = _supervised(quarantine_threshold=2, timeout_s=5.0)
        tracer = Tracer(run_id="self-heal")
        with activate(tracer), inject_faults(
            FaultSpec(stage="flow/mult_1", kind="kill", times=1, delay_s=0.3),
            FaultSpec(stage="flow/fft_a", kind="hang", times=1, delay_s=500.0),
        ) as plan:
            build_suite_dataset(SCALE, cache_path=cache, runner=runner)
        assert sorted(kind for _stage, kind in plan.triggered) == ["hang", "kill"]
        assert [(r.unit, r.kind) for r in runner.failures.records] == [("fft_a", "timeout")]
        counters = build_manifest(tracer, "suite")["counters"]
        assert counters["runner.worker_crashes"] == 1
        assert counters["runner.timeouts"] == 1
        assert counters["runner.quarantined"] == 0

        # a fault-free resume recomputes only the timed-out design, and the
        # store is byte-identical to the uninterrupted run
        with activate(Tracer(run_id="resume")) as resumed:
            build_suite_dataset(
                SCALE, cache_path=cache, runner=FaultTolerantRunner(fail_fast=True)
            )
        flows = [s.attrs["design"] for s in resumed.roots if s.name == "flow"]
        assert flows == ["fft_a"]
        assert resumed.counters["checkpoint.resume_skips"] == len(SUITE_ORDER) - 1
        assert _store_digests(cache) == suite_baseline

    def test_cli_kill_fault_terminates_despite_signal_handlers(self, tmp_path):
        # regression: forked workers inherited the CLI's graceful-shutdown
        # SIGTERM handler, swallowed a terminate() and left an unkillable
        # worker that the process joined forever at exit — the subprocess
        # timeout below is the assert
        code = (
            "import sys\n"
            "import repro.cli as cli\n"
            "from repro.runtime import FaultSpec, inject_faults\n"
            "spec = FaultSpec(stage='flow/mult_1', kind='kill', times=99,"
            " delay_s=0.3)\n"
            "with inject_faults(spec):\n"
            "    sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-u",
                "-c",
                code,
                "suite",
                "--scale",
                str(SCALE),
                "-j",
                "2",
                "--quarantine-threshold",
                "2",
            ],
            env=_subprocess_env(DRCSHAP_CACHE_DIR=str(tmp_path)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 3, proc.stderr  # degraded, not hung/killed
        assert "QUARANTINED flow/mult_1" in proc.stdout + proc.stderr
        # the buggy inherited handler announced shutdowns from inside workers
        assert "shutdown requested" not in proc.stderr

    def test_cli_sigterm_exits_resumable_code_then_resume_completes(
        self, tmp_path, suite_baseline
    ):
        env = _subprocess_env(DRCSHAP_CACHE_DIR=str(tmp_path))
        trace = tmp_path / "run.json"
        cmd = [
            sys.executable,
            "-u",
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "suite",
            "--scale",
            str(SCALE),
            "-j",
            "2",
            "--trace",
            str(trace),
        ]
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            # wait until at least one design checkpoint exists, so the
            # interrupted run has something for --resume to reuse
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if any(tmp_path.glob("*.ckpt/*.npz")) or proc.poll() is not None:
                    break
                time.sleep(0.1)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode == 0:
            pytest.skip("suite finished before the signal landed")
        assert proc.returncode == 4, stderr  # documented resumable exit code
        assert "shutdown requested" in stderr
        assert "interrupted:" in stderr
        # flushed cleanly: no torn atomic-write temp files anywhere...
        assert not list(tmp_path.rglob(".*.tmp*"))
        # ...and the one telemetry document was written on the interrupted
        # exit: it loads, carries the signal counter, and has no sibling
        manifest = load_manifest(trace)
        assert manifest["counters"]["runner.signal_shutdowns"] == 1
        assert [s.name for s in manifest["spans"]] == ["suite"]
        assert sorted(tmp_path.glob("run*")) == [trace]

        resumed = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=600
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "Total samples" in resumed.stdout
        tag = f"suite_scale{SCALE:g}".replace(".", "p")
        assert _store_digests(tmp_path / f"{tag}.npz") == suite_baseline


class TestOrphanTempSweep:
    def _stale(self, root: Path, name: str) -> Path:
        tmp = root / name
        tmp.write_bytes(b"orphan")
        two_hours_ago = time.time() - 7200
        os.utime(tmp, (two_hours_ago, two_hours_ago))
        return tmp

    def test_sweeps_stale_keeps_fresh_and_real_files(self, tmp_path):
        stale = self._stale(tmp_path, ".suite.npz.tmp1234")
        fresh = tmp_path / ".suite.npz.tmp5678"
        fresh.write_bytes(b"live writer")
        real = tmp_path / "suite.npz"
        real.write_bytes(b"artefact")
        with activate(Tracer(run_id="sweep")) as tracer:
            assert sweep_orphan_temps(tmp_path) == 1
        assert not stale.exists()
        assert fresh.exists() and real.exists()
        assert tracer.counters["runtime.cache.orphans_swept"] == 1

    def test_missing_root_sweeps_nothing(self, tmp_path):
        assert sweep_orphan_temps(tmp_path / "nope") == 0

    def test_checkpoint_store_sweeps_on_open(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        stale = self._stale(root, ".x.npz.tmp999")
        CheckpointStore(root)
        assert not stale.exists()


class TestFailureRecordKinds:
    def test_serial_error_and_timeout_kinds(self):
        runner = FaultTolerantRunner(timeout_s=0.2)
        out = runner.run_units(
            "stage",
            [
                ("bad", _raise_boom, (), {}),
                ("slow", _sleep_then, (2.0, "late"), {}),
            ],
        )
        assert not out[0].ok and not out[1].ok
        by_unit = {r.unit: r for r in runner.failures.records}
        assert by_unit["bad"].kind == "error"
        assert by_unit["slow"].kind == "timeout"

    def test_kind_serializes(self):
        rec = FailureRecord(
            stage="s", unit="u", error_type="E", message="m",
            elapsed_s=0.1, kind="worker_crash",
        )
        doc = rec.to_dict()
        assert doc["kind"] == "worker_crash"
        assert json.loads(json.dumps(doc))["kind"] == "worker_crash"

    def test_pooled_stage_failure_is_an_error_not_a_crash(self):
        # a unit body that raises a runtime error (a nested batch's
        # StageFailure) in a pool worker must reach the parent as that
        # error: an unpicklable one broke the pool and was quarantined
        runner = FaultTolerantRunner(jobs=2)
        with activate(Tracer()) as tracer:
            out = runner.run_units(
                "stage",
                [("bad", _raise_stage_failure, (), {}), ("ok", _double, (3,), {})],
            )
        assert not out[0].ok and out[1].value == 6
        rec = out[0].failure
        assert (rec.error_type, rec.kind) == ("StageFailure", "error")
        assert tracer.counters["runner.worker_crashes"] == 0
        assert tracer.counters["runner.quarantined"] == 0


class TestErrorPickling:
    @pytest.mark.parametrize("err", [
        StageFailure("forest", "trees0-14", "inner"),
        StageFailure("flow", "mult_b"),
        StageTimeout("flow", "mult_b", 1.5),
        WorkerCrashError("flow", "mult_b", 2, "SIGKILL"),
        ShutdownRequested("forest", signal.SIGTERM, ["trees15-29"]),
        ShutdownRequested("flow", signal.SIGINT),
    ], ids=lambda e: type(e).__name__)
    def test_round_trip_keeps_attributes_and_message(self, err):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)


def _raise_boom():
    raise RuntimeError("boom")


def _raise_stage_failure():
    raise StageFailure("forest", "trees0-14", "inner batch failed")
