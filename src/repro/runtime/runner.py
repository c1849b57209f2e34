"""Fault-tolerant unit runner: one dispatch loop, inline or process-pool execution.

A *unit* is one independently restartable chunk of pipeline work — one
design's Fig. 1 flow, one (model, group) cell of the leave-one-group-out
grid, or one lock-step group of an explanation forest's trees.
:class:`FaultTolerantRunner` executes a batch of units so that one bad
unit degrades the run instead of killing it.  A single dispatch loop owns
the unit queue, retries, the failure log, fail-fast and the
graceful-shutdown drain:

* every attempt is isolated: ``Exception``\\ s become failed attempts,
  ``KeyboardInterrupt``/``SystemExit`` propagate, and so does a
  :class:`~repro.runtime.errors.ShutdownRequested` raised by a unit body
  that runs a nested batch;
* a :class:`RetryPolicy` grants each unit ``1 + max_retries`` attempts with
  exponential backoff between them, and an optional wall-clock budget per
  attempt (the unit body runs on a daemon thread whose ``join`` timeout is
  the budget; a timed-out attempt's thread is abandoned, which is safe for
  our pure-compute units but means the budget should be generous);
* exhausted units are recorded in a structured :class:`FailureLog` and the
  runner either raises (``fail_fast=True``) or returns a not-ok
  :class:`UnitOutcome` so the caller can skip the unit, mirroring the
  paper's footnote-3 skip semantics;
* once :func:`repro.runtime.supervision.shutdown_requested` is set (first
  SIGTERM/SIGINT), nothing new is dispatched; in-flight units drain and are
  checkpointed via ``on_result``, then
  :class:`~repro.runtime.errors.ShutdownRequested` names the units that
  never started, so ``--resume`` picks up exactly there.

The loop hands each attempt to one of two executors:

* **inline** (``jobs == 1``, or a one-unit batch) — the attempt runs in the
  calling process, on the calling thread when there is no timeout.  A
  unit's attempts run back to back (the backoff is slept out before the
  next unit starts), so a serial run executes units, and fires injected
  faults, in input order.  Injected faults fire inside the attempt budget,
  so a ``delay`` fault counts against the timeout; worker-side
  ``kill``/``hang`` faults are never consumed;
* **supervised process pool** (``jobs > 1``) — at most ``jobs`` attempts in
  flight on a ``ProcessPoolExecutor``; a failed unit backs off while other
  units keep the workers busy.  Injected faults fire in the parent at
  submit time, and ``kill``/``hang`` faults are consumed there too
  (:func:`repro.runtime.faults.worker_directive`) and shipped to the worker
  as a plain directive, so fault schedules stay deterministic.

The pool is *supervised* — a SIGKILLed worker (OOM killer, preemption, a
segfaulting native lib) costs one unit re-dispatch, never the run:

* **crash detection** — a dead worker surfaces as ``BrokenProcessPool``;
  every in-flight unit of the broken pool is re-queued and the pool is
  respawned with exponential backoff, up to ``max_pool_respawns`` breakages
  per ``run_units`` call (beyond that the machine itself is suspect and
  :class:`~repro.runtime.errors.PoolRespawnLimitError` aborts the stage);
* **heartbeat timeout** — with ``heartbeat_s`` set, an attempt that has
  produced no completion for that long is declared hung (a worker stuck in
  uncooperative native code never trips the in-worker timeout); the pool's
  workers are killed, breaking it into the same respawn path, and the hung
  unit alone is charged with the crash;
* **poison-task quarantine** — a unit charged with ``quarantine_threshold``
  crashes stops being re-dispatched and becomes a :class:`FailureRecord`
  with ``kind="worker_crash"``.  Attribution uses start announcements: each
  worker reports "task N started in pid P" over a pipe before touching the
  unit body, so units still queued inside the executor when the pool broke
  re-queue for free and only units that had *started and not completed*
  are charged.  Among those, a unit whose worker the broken executor tore
  down with SIGTERM is innocent: only units whose worker exited on its own
  are charged.  When no worker's exit status says so (unknown, or every
  worker SIGTERMed), every started unit is charged, so an innocent unit
  repeatedly co-resident with a poison one can be quarantined too —
  re-running with ``--resume`` recomputes exactly the quarantined units.
* **one BLAS thread per worker** — workers pin OpenBLAS/OpenMP to one
  thread (:func:`repro.runtime.blas.pin_one_thread`), so ``jobs`` workers
  never oversubscribe the CPUs with inherited BLAS helper threads.  A
  ``jobs > 1`` runner that runs a one-unit batch inline does so under a
  one-thread budget (:func:`repro.runtime.blas.thread_budget`), as a pinned
  worker would; a ``jobs == 1`` runner keeps the process's BLAS threads.

Telemetry: when the ambient tracer is enabled, every attempt — inline or in
a worker — runs under a fresh local :class:`~repro.runtime.telemetry.Tracer`
whose snapshot travels back with the value.  Before :meth:`run_units`
returns, the snapshots of successful outcomes are adopted in input order,
so serial and parallel runs produce the same span tree.  Runner counters:
``runner.retries``, ``runner.timeouts``, ``runner.failed_units``,
``runner.worker_crashes`` (pool-breakage events), ``runner.pool_respawns``,
``runner.quarantined`` and (from the shutdown coordinator)
``runner.signal_shutdowns``.

Checkpoint writes belong in the ``on_result`` callback, which always runs
in the calling process, so every store keeps a single writer.  Under a pool,
unit functions and their arguments travel by pickle and must be module-level
picklable objects, and per-attempt CPU time must be measured inside the unit
body — a child's CPU time is invisible to the parent's
``time.process_time()``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from . import blas, faults
from .errors import (
    PoolRespawnLimitError,
    ShutdownRequested,
    StageFailure,
    StageTimeout,
    WorkerCrashError,
)
from .supervision import shutdown_requested, shutdown_signum
from .telemetry import TelemetrySnapshot, Tracer, activate, get_tracer

#: One schedulable unit of work: ``(unit_name, fn, args, kwargs)``.
UnitSpec = tuple[str, Callable[..., Any], tuple, dict]

#: How long the dispatch loop blocks waiting for worker completions before
#: re-checking backoff expiries, heartbeats and the shutdown flag (seconds).
_POLL_S = 0.05


class _AttemptTimeout(Exception):
    """Picklable marker: an attempt exhausted its wall-clock budget.

    Distinct from :class:`TimeoutError` on purpose — on Python 3.11+ the
    builtin is an alias of ``concurrent.futures.TimeoutError`` (and of
    socket/asyncio timeouts), so a unit function raising its *own*
    ``TimeoutError`` must stay an ordinary unit failure, not be mistaken
    for the runner's stage timeout.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout budget applied to every unit of a runner."""

    max_retries: int = 0
    backoff_base_s: float = 0.0  # sleep backoff_base * 2**attempt between tries
    backoff_cap_s: float = 30.0
    timeout_s: float | None = None  # wall-clock budget per attempt

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff_base_s >= 0 and self.backoff_cap_s >= 0):
            raise ValueError(
                f"backoff must be >= 0, got base {self.backoff_base_s}, "
                f"cap {self.backoff_cap_s}"
            )
        # a zero or negative budget would time out every attempt at once
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt number ``attempt`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1))


@dataclass
class FailureRecord:
    """One permanently failed unit.

    ``elapsed_s`` spans all attempts (backoff included); ``last_attempt_s``
    is the wall clock of the final attempt alone.  ``run_id`` ties the
    record to the telemetry run that produced it, so a failure log can be
    joined against the run's trace/manifest.  ``kind`` classifies the
    failure mode — ``"error"`` (the unit raised), ``"timeout"`` (wall-clock
    budget), or ``"worker_crash"`` (the unit repeatedly took worker
    processes down and was quarantined by the supervision layer).
    """

    stage: str
    unit: str
    attempts: int
    error_type: str
    message: str
    elapsed_s: float
    last_attempt_s: float = 0.0
    run_id: str = ""
    kind: str = "error"

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "unit": self.unit,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "elapsed_s": round(self.elapsed_s, 3),
            "last_attempt_s": round(self.last_attempt_s, 3),
            "run_id": self.run_id,
            "kind": self.kind,
        }


class FailureLog:
    """Structured record of every unit that exhausted its retry budget."""

    def __init__(self) -> None:
        self.records: list[FailureRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def record(self, rec: FailureRecord) -> None:
        """Append a record and cross-reference it into the active trace."""
        self.records.append(rec)
        get_tracer().note_failure(rec.to_dict())

    def units(self) -> list[str]:
        return [f"{r.stage}/{r.unit}" for r in self.records]

    def summary(self) -> str:
        if not self.records:
            return "no failures"
        lines = [f"{len(self.records)} failed unit(s):"]
        for r in self.records:
            lines.append(
                f"  {r.stage}/{r.unit}: {r.error_type} after "
                f"{r.attempts} attempt(s) — {r.message}"
            )
        return "\n".join(lines)


@dataclass
class UnitOutcome:
    """Result of running one unit: a value, or a recorded failure."""

    value: Any = None
    failure: FailureRecord | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


# -- one attempt, in this process or a worker -------------------------------------


def _run_attempt(
    body: Callable[[], Any], timeout_s: float | None, trace: bool
) -> tuple[Any, TelemetrySnapshot | None]:
    """Run one attempt body; returns ``(value, telemetry snapshot or None)``.

    With ``trace`` the body runs under a fresh local tracer, activated on
    the thread that runs it.  With a budget the body runs on a daemon thread
    and the budget is a ``join`` timeout; a body that finishes inside the
    race window between expiry and the liveness check wins with its own
    result or exception.
    """

    def traced() -> tuple[Any, TelemetrySnapshot | None]:
        if not trace:
            return body(), None
        local = Tracer()
        with activate(local):
            value = body()
        return value, local.snapshot()

    if timeout_s is None:
        return traced()
    result: list[Any] = []
    error: list[BaseException] = []

    def run() -> None:
        try:
            result.append(traced())
        except BaseException as exc:  # noqa: B036 - re-raised below, on the caller's thread
            error.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise _AttemptTimeout()
    if error:
        raise error[0]
    return result[0]


#: Worker-side start-announcement channel, installed by ``_worker_init``.
_ANNOUNCE: Any = None


def _worker_init(announce: Any) -> None:
    """Pool initializer: announcement queue, one BLAS thread, clean signals.

    Forked workers inherit the parent's graceful-shutdown handlers
    (:mod:`repro.runtime.supervision`); left in place they would swallow the
    SIGTERM that ``ProcessPoolExecutor`` sends when tearing down a broken
    pool, leaving an unkillable worker the executor joins forever.  SIGTERM
    is restored to its default so ``Process.terminate()`` works; SIGINT is
    ignored so a terminal Ctrl-C (delivered to the whole foreground process
    group) is coordinated by the parent alone.
    """
    global _ANNOUNCE
    _ANNOUNCE = announce
    blas.pin_one_thread()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_attempt(
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    timeout_s: float | None,
    trace: bool,
    directive: tuple[str, float] | None,
    task_id: int,
) -> tuple[Any, TelemetrySnapshot | None]:
    """Run one unit attempt inside a worker process.

    The start announcement ``(task_id, pid)`` goes out first, over a
    ``multiprocessing.SimpleQueue`` whose ``put`` writes the pipe
    synchronously — no feeder thread that a SIGKILL could take down with
    the message still buffered.  ``directive``
    is a parent-consumed kill/hang fault: it executes *before* the budget
    starts, so an injected hang is uncooperative — only the parent's
    heartbeat can catch it, exactly like a stuck native call.
    """
    if _ANNOUNCE is not None:
        try:
            _ANNOUNCE.put((task_id, os.getpid()))
        except (OSError, ValueError):
            pass  # parent gone or queue closed: attribution degrades gracefully
    faults.execute_directive(directive)
    return _run_attempt(lambda: fn(*args, **kwargs), timeout_s, trace)


# -- the two executors ----------------------------------------------------------------


@dataclass(eq=False)
class _UnitState:
    """Parent-side bookkeeping for one unit's attempts."""

    index: int
    unit: str
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict
    attempt: int = 0
    t_start: float | None = None
    t_attempt: float = 0.0  # dispatch time of the latest attempt
    eligible_at: float = 0.0
    crashes: int = 0  # worker deaths this unit has been charged with
    hung: bool = False  # latest attempt exceeded the heartbeat deadline
    task_id: int = -1  # unique id of the latest pool attempt


class _Inline:
    """Runs each attempt to completion in the calling process."""

    capacity = 1

    def __init__(self, stage: str, timeout_s: float | None, trace: bool):
        self.stage = stage
        self.timeout_s = timeout_s
        self.trace = trace

    def submit(self, st: _UnitState) -> Future:
        """Run the attempt now; returns an already settled future."""
        name = f"{self.stage}/{st.unit}"

        def body() -> Any:
            faults.fire(name)  # inside the budget: a delay fault counts against it
            return st.fn(*st.args, **st.kwargs)

        fut: Future = Future()
        try:
            fut.set_result(_run_attempt(body, self.timeout_s, self.trace))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def close(self, wait: bool) -> None:
        pass


class _Pool:
    """A supervised ``ProcessPoolExecutor``: start announcements, kills, respawns."""

    def __init__(self, stage: str, jobs: int, timeout_s: float | None, trace: bool):
        self.stage = stage
        self.capacity = jobs
        self.timeout_s = timeout_s
        self.trace = trace
        self.started: dict[int, int] = {}  # announced task id -> worker pid
        self.respawns = 0
        self._next_task = 0
        self._announce = multiprocessing.SimpleQueue()
        self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.capacity,
            initializer=_worker_init,
            initargs=(self._announce,),
        )

    def submit(self, st: _UnitState) -> Future:
        """Fire parent-side faults, then hand the attempt to a worker.

        Raises ``BrokenProcessPool``/``RuntimeError`` when the pool died
        before the attempt could start.
        """
        name = f"{self.stage}/{st.unit}"
        try:
            # the fault plan lives in the parent: fire here, not in the
            # worker, so injection is deterministic
            faults.fire(name)
        except Exception as exc:
            fut: Future = Future()
            fut.set_exception(exc)
            return fut
        directive = faults.worker_directive(name)
        st.task_id = self._next_task
        self._next_task += 1
        return self._executor.submit(
            _worker_attempt, st.fn, st.args, st.kwargs,
            self.timeout_s, self.trace, directive, st.task_id,
        )

    def drain_announcements(self) -> None:
        """Pull all pending start announcements into :attr:`started`."""
        try:
            while not self._announce.empty():
                task_id, pid = self._announce.get()
                self.started[task_id] = pid
        except (OSError, EOFError, ValueError):
            pass  # torn pipe after a crash: attribution degrades gracefully

    def kill_workers(self) -> None:
        """SIGKILL every live worker of a pool whose tasks stopped heartbeating.

        Reaches into ``ProcessPoolExecutor._processes`` (a pid → Process
        map); there is no public API for this, but a hung worker ignores
        cooperative shutdown by definition.  Killing the workers breaks the
        pool, which the dispatch loop then recovers exactly like an organic
        worker death.
        """
        processes = getattr(self._executor, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except (OSError, AttributeError, ValueError):
                pass  # already dead, or platform without kill(): best effort

    def exit_codes(self) -> dict[int, int | None]:
        """Exit status of each worker of the broken executor, by pid.

        A breaking ``ProcessPoolExecutor`` SIGTERMs its surviving workers;
        this waits up to a second for them to be reaped.  ``None`` means
        unknown.  Reads ``_processes`` like :meth:`kill_workers` (CPython
        keeps it populated after a break until ``shutdown``).
        """
        processes = getattr(self._executor, "_processes", None) or {}
        deadline = time.monotonic() + 1.0
        codes: dict[int, int | None] = {}
        for pid, proc in list(processes.items()):
            try:
                while proc.exitcode is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                codes[pid] = proc.exitcode
            except ValueError:  # a closed process handle
                codes[pid] = None
        return codes

    def discard(self) -> None:
        """Abandon the broken executor (its futures are settled or cancelled)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    def respawn(self) -> None:
        self._executor = self._spawn()

    def close(self, wait: bool) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        self._announce.close()


@dataclass
class _Batch:
    """The dispatch loop's state for one :meth:`FaultTolerantRunner.run_units` call."""

    stage: str
    executor: _Inline | _Pool
    queue: list[_UnitState]  # waiting for (re-)dispatch
    on_result: Callable[[str, UnitOutcome], None] | None
    running: dict[Future, _UnitState] = field(default_factory=dict)
    outcomes: dict[int, UnitOutcome] = field(default_factory=dict)
    snapshots: dict[int, TelemetrySnapshot] = field(default_factory=dict)

    def finish(
        self, st: _UnitState, outcome: UnitOutcome,
        snapshot: TelemetrySnapshot | None = None,
    ) -> None:
        self.outcomes[st.index] = outcome
        if snapshot is not None:
            self.snapshots[st.index] = snapshot
        if self.on_result is not None:
            self.on_result(st.unit, outcome)


# -- the runner -----------------------------------------------------------------------


class FaultTolerantRunner:
    """Executes pipeline units under a retry/timeout/isolation policy.

    ``jobs > 1`` runs batches on a supervised pool of that many worker
    processes; ``max_pool_respawns``, ``quarantine_threshold``,
    ``heartbeat_s`` and ``respawn_backoff_s`` tune its supervision (see the
    module docstring).
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        fail_fast: bool = False,
        verbose: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        *,
        jobs: int = 1,
        max_pool_respawns: int = 3,
        quarantine_threshold: int = 2,
        heartbeat_s: float | None = None,
        respawn_backoff_s: float = 0.5,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_pool_respawns < 0:
            raise ValueError(f"max_pool_respawns must be >= 0, got {max_pool_respawns}")
        if quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, got {quarantine_threshold}"
            )
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.policy = policy or RetryPolicy()
        self.fail_fast = fail_fast
        self.verbose = verbose
        self.failures = FailureLog()
        self._sleep = sleep
        self.jobs = jobs
        self.max_pool_respawns = max_pool_respawns
        self.quarantine_threshold = quarantine_threshold
        self.heartbeat_s = heartbeat_s
        self.respawn_backoff_s = respawn_backoff_s

    def respawn_backoff(self, respawn: int) -> float:
        """Seconds to pause before pool respawn number ``respawn`` (1-based)."""
        if self.respawn_backoff_s <= 0:
            return 0.0
        return min(30.0, self.respawn_backoff_s * 2 ** (respawn - 1))

    def run_unit(
        self,
        stage: str,
        unit: str,
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> UnitOutcome:
        """Run ``fn(*args, **kwargs)`` as the unit ``stage/unit``, inline.

        Returns an ok :class:`UnitOutcome` on (eventual) success.  On a
        permanently failed unit: records it in :attr:`failures`, then raises
        :class:`StageFailure` if ``fail_fast`` else returns a not-ok outcome.
        """
        return self.run_units(stage, [(unit, fn, args, kwargs)])[0]

    def run_units(
        self,
        stage: str,
        units: list[UnitSpec],
        on_result: Callable[[str, UnitOutcome], None] | None = None,
    ) -> list[UnitOutcome]:
        """Run a batch of units; returns outcomes in the order given.

        ``on_result(unit_name, outcome)`` is invoked in the calling process
        as each unit finishes, in completion order; that is where callers
        perform checkpoint writes.  ``fail_fast`` raises out of the batch at
        the first permanently failed unit.
        """
        self._register_counters()
        tracer = get_tracer()
        if self.jobs == 1 or len(units) <= 1:
            executor: _Inline | _Pool = _Inline(stage, self.policy.timeout_s, tracer.enabled)
        else:
            executor = _Pool(stage, self.jobs, self.policy.timeout_s, tracer.enabled)
        batch = _Batch(
            stage,
            executor,
            [_UnitState(i, u, fn, a, k) for i, (u, fn, a, k) in enumerate(units)],
            on_result,
        )
        try:
            with blas.thread_budget(1 if self.jobs > 1 else None):
                abandoned = self._dispatch(batch)
            executor.close(wait=True)
        except BaseException:
            for fut in batch.running:
                fut.cancel()
            executor.close(wait=False)
            raise
        finally:
            for i in sorted(batch.snapshots):  # input order, whatever finished first
                tracer.adopt(batch.snapshots[i])
        if abandoned:
            raise ShutdownRequested(
                stage, shutdown_signum(), [st.unit for st in abandoned]
            )
        return [batch.outcomes[i] for i in range(len(units))]

    @staticmethod
    def _register_counters() -> None:
        """Zero-register the runner's metric keys so every run reports them.

        The supervision counters are registered here too — a serial run can
        never crash a worker, but its manifest must stay semantically
        identical to a ``--jobs N`` run's (``stable_view`` equality).
        """
        tracer = get_tracer()
        for key in (
            "runner.retries",
            "runner.timeouts",
            "runner.failed_units",
            "runner.worker_crashes",
            "runner.pool_respawns",
            "runner.quarantined",
            "runner.signal_shutdowns",
        ):
            tracer.counter(key, 0)

    # -- the dispatch loop ------------------------------------------------------------

    def _dispatch(self, b: _Batch) -> list[_UnitState]:
        """Run the batch to completion; returns the units a shutdown abandoned."""
        abandoned: list[_UnitState] = []
        while b.queue or b.running:
            if shutdown_requested() and b.queue:
                # first signal: stop dispatching, drain what is in flight
                abandoned.extend(b.queue)
                b.queue = []
            now = time.monotonic()
            backlog: list[_UnitState] = []
            broken = False
            for st in b.queue:
                # At most ``capacity`` attempts in flight: a submitted attempt
                # starts (almost) immediately, so the heartbeat clock measures
                # *running* time, not executor-queue waiting — and a shutdown
                # signal finds re-dispatchable units here in the parent queue
                # instead of buried inside the pool.
                if broken or st.eligible_at > now or len(b.running) >= b.executor.capacity:
                    backlog.append(st)
                    continue
                if st.t_start is None:
                    st.t_start = now
                st.attempt += 1
                st.t_attempt = now
                st.hung = False
                try:
                    fut = b.executor.submit(st)
                except (BrokenProcessPool, RuntimeError):
                    # the pool died under us before this attempt started:
                    # the attempt never ran, so hand it back unconsumed
                    st.attempt -= 1
                    backlog.append(st)
                    broken = True
                    continue
                b.running[fut] = st
            b.queue = backlog

            if not broken:
                if not b.running:
                    if b.queue:  # everything is backing off: sleep it out
                        pause = min(st.eligible_at for st in b.queue) - time.monotonic()
                        if pause > 0:
                            self._sleep(pause)
                    continue
                done, _ = wait(b.running, timeout=_POLL_S, return_when=FIRST_COMPLETED)
                for fut in done:
                    st = b.running.pop(fut)
                    if self._settle(b, fut, st):
                        # this unit was in flight when its worker died;
                        # recovery below decides re-dispatch vs quarantine
                        b.running[fut] = st
                        broken = True

            if not broken and self.heartbeat_s is not None:
                hung = [
                    st for fut, st in b.running.items()
                    if not fut.done() and now - st.t_attempt > self.heartbeat_s
                ]
                for st in hung:
                    st.hung = True
                if hung:
                    b.executor.kill_workers()
                    broken = True

            if broken:
                self._recover_pool(b)
        return abandoned

    def _settle(self, b: _Batch, fut: Future, st: _UnitState) -> bool:
        """Settle one completed attempt: finish the unit, retry it, or fail it.

        Returns ``True`` when the future carries ``BrokenProcessPool`` — the
        unit is still unresolved and pool recovery must decide its fate.
        """
        try:
            value, snapshot = fut.result()
        except (KeyboardInterrupt, SystemExit, ShutdownRequested):
            # a unit body that runs its own batch (a forest fit inside a
            # ``report`` unit) stops with it on a shutdown signal
            raise
        except BrokenProcessPool:
            return True
        except _AttemptTimeout:
            self._attempt_failed(b, st, True, None)
        except Exception as exc:
            self._attempt_failed(b, st, False, exc)
        else:
            b.finish(st, UnitOutcome(value=value), snapshot)
        return False

    def _attempt_failed(
        self, b: _Batch, st: _UnitState, timed_out: bool, exc: Exception | None
    ) -> None:
        """Handle one failed attempt: schedule a retry or record the failure."""
        tracer = get_tracer()
        message = _describe(exc, timed_out, self.policy)
        if timed_out:
            tracer.counter("runner.timeouts")
        if st.attempt < self.policy.max_attempts:
            tracer.counter("runner.retries")
            if self.verbose:
                print(
                    f"  retrying {b.stage}/{st.unit} (attempt {st.attempt} "
                    f"failed: {message})",
                    flush=True,
                )
            pause = self.policy.backoff(st.attempt)
            if isinstance(b.executor, _Inline):
                # attempts run back to back: sleep the backoff out and retry
                # this unit before the next one starts
                if pause > 0:
                    self._sleep(pause)
                b.queue.insert(0, st)
            else:
                # the workers stay busy with other units meanwhile
                st.eligible_at = time.monotonic() + pause
                b.queue.append(st)
            return

        tracer.counter("runner.failed_units")
        if timed_out:
            error: Exception = StageTimeout(
                b.stage, st.unit, st.attempt, self.policy.timeout_s or 0.0
            )
        else:
            error = StageFailure(b.stage, st.unit, st.attempt, message)
        self._give_up(
            b, st, "timeout" if timed_out else "error",
            "StageTimeout" if timed_out else type(exc).__name__,
            message, error, exc,
        )

    def _give_up(
        self,
        b: _Batch,
        st: _UnitState,
        kind: str,
        error_type: str,
        message: str,
        error: Exception,
        cause: BaseException | None,
    ) -> None:
        """Record ``st`` as permanently failed; raise ``error`` under fail-fast."""
        now = time.monotonic()
        rec = FailureRecord(
            stage=b.stage,
            unit=st.unit,
            attempts=st.attempt,
            error_type=error_type,
            message=message,
            elapsed_s=now - (st.t_start or now),
            # dispatch-to-settle of the final attempt (pool queue wait included)
            last_attempt_s=now - st.t_attempt,
            run_id=get_tracer().run_id,
            kind=kind,
        )
        self.failures.record(rec)
        if self.verbose:
            label = "QUARANTINED" if kind == "worker_crash" else "FAILED"
            print(f"  {label} {b.stage}/{st.unit}: {message}", flush=True)
        if self.fail_fast:
            raise error from cause
        b.finish(st, UnitOutcome(failure=rec))

    # -- supervision ------------------------------------------------------------------

    def _recover_pool(self, b: _Batch) -> None:
        """Handle a broken pool: charge crashes, quarantine or re-queue, respawn.

        Crash charges go to the units that can actually be guilty: on a
        heartbeat kill, exactly the units marked hung; on an organic
        breakage, the in-flight units whose task a worker announced as
        started but that never completed — narrowed, when several had
        started, to those whose worker did not exit by the executor's
        SIGTERM teardown.  Units still queued inside the dead executor
        re-queue for free.  If no in-flight unit had started
        (a worker died while idle or mid-spawn), nobody is charged — the
        respawn limit still bounds that failure mode.
        """
        pool = b.executor
        tracer = get_tracer()
        tracer.counter("runner.worker_crashes")
        pool.drain_announcements()
        # Harvest futures that settled before the breakage reached them — a
        # completed unit must keep its result, not be re-run or charged.
        in_flight: list[_UnitState] = []
        for fut, st in list(b.running.items()):
            if fut.done():
                if self._settle(b, fut, st):
                    in_flight.append(st)
            else:
                fut.cancel()
                in_flight.append(st)
        b.running.clear()
        hung = [st for st in in_flight if st.hung]
        started = [st for st in in_flight if st.task_id in pool.started]
        if not hung and len(started) > 1:
            codes = pool.exit_codes()
            died = [st for st in started
                    if codes.get(pool.started[st.task_id]) != -signal.SIGTERM]
            started = died or started
        pool.discard()

        culprits = hung or started
        detail = "heartbeat expired" if hung else "worker process died"
        for st in in_flight:
            if st in culprits:
                st.crashes += 1
                if self.verbose:
                    print(
                        f"  worker crash running {b.stage}/{st.unit} "
                        f"({detail}; crash #{st.crashes})",
                        flush=True,
                    )
                if st.crashes >= self.quarantine_threshold:
                    tracer.counter("runner.quarantined")
                    self._give_up(
                        b, st, "worker_crash", WorkerCrashError.__name__,
                        f"{detail}; {st.crashes} crash(es) charged to this unit — "
                        "quarantined as a poison task",
                        WorkerCrashError(b.stage, st.unit, st.crashes, detail), None,
                    )
                    continue
            # not chargeable, or below the quarantine threshold: a crash is an
            # infrastructure failure, so the attempt is handed back unconsumed
            st.attempt -= 1
            st.eligible_at = 0.0
            b.queue.append(st)

        pool.respawns += 1
        if pool.respawns > self.max_pool_respawns:
            raise PoolRespawnLimitError(b.stage, pool.respawns, self.max_pool_respawns)
        tracer.counter("runner.pool_respawns")
        pause = self.respawn_backoff(pool.respawns)
        if self.verbose:
            print(
                f"  respawning worker pool (break {pool.respawns}/"
                f"{self.max_pool_respawns}, backoff {pause:g}s)",
                flush=True,
            )
        if pause > 0:
            self._sleep(pause)
        pool.respawn()


class ParallelRunner(FaultTolerantRunner):
    """A :class:`FaultTolerantRunner` whose constructor takes ``jobs`` first."""

    def __init__(
        self,
        jobs: int,
        policy: RetryPolicy | None = None,
        fail_fast: bool = False,
        verbose: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        **supervision: Any,
    ):
        super().__init__(policy, fail_fast, verbose, sleep, jobs=jobs, **supervision)


def _describe(
    exc: BaseException | None, timed_out: bool, policy: RetryPolicy
) -> str:
    if timed_out:
        if policy.timeout_s is None:
            return "timed out"
        return f"timed out after {policy.timeout_s:g}s"
    return f"{type(exc).__name__}: {exc}"
