"""Fault-tolerant unit runner: one dispatch loop, inline or worker-process execution.

A *unit* is one independently restartable chunk of pipeline work — one
design's Fig. 1 flow, one (model, group) cell of the leave-one-group-out
grid, or one lock-step group of an explanation forest's trees.
:class:`FaultTolerantRunner` executes a batch of units so that one bad
unit degrades the run instead of killing it.  A single dispatch loop owns
the unit queue, the failure log, fail-fast and the graceful-shutdown drain:

* every attempt is isolated: ``Exception``\\ s become failed attempts,
  ``KeyboardInterrupt``/``SystemExit`` propagate, and so does a
  :class:`~repro.runtime.errors.ShutdownRequested` raised by a unit body
  that runs a nested batch;
* each unit gets one attempt, with an optional wall-clock budget
  (``timeout_s``).  A unit is a pure function of its arguments, so running
  a failed one again would fail the same way: an exception or a timeout
  fails the unit at once, and ``--resume`` recomputes exactly the failed
  units of a degraded run;
* failed units are recorded in a structured :class:`FailureLog` and the
  runner either raises (``fail_fast=True``) or returns a not-ok
  :class:`UnitOutcome` so the caller can skip the unit, mirroring the
  paper's footnote-3 skip semantics;
* once :func:`repro.runtime.supervision.shutdown_requested` is set (first
  SIGTERM/SIGINT), nothing new is dispatched; in-flight units drain and are
  checkpointed via ``on_result``, then
  :class:`~repro.runtime.errors.ShutdownRequested` names the units that
  never started, so ``--resume`` picks up exactly there.

The loop runs each attempt in one of two ways:

* **inline** (no ``timeout_s``, and ``jobs == 1`` or a one-unit batch) —
  the attempt runs on the calling thread, so a serial run executes units,
  and fires injected faults, in input order.  Worker-side ``kill``/``hang``
  faults are never consumed;
* **owned workers** (a ``timeout_s`` budget, or ``jobs > 1`` and two or
  more units) — up to ``jobs`` long-lived ``multiprocessing.Process``
  workers, started as the batch needs them and stopped before
  :meth:`FaultTolerantRunner.run_units` returns or raises.
  Each worker runs one attempt at a time, read from its own ``Pipe``; the
  parent waits on the pipes and the worker sentinels together, so it always
  knows which unit a dead or overdue worker was running.  Injected faults
  fire in the parent at dispatch, and ``kill``/``hang`` faults are consumed
  there too (:func:`repro.runtime.faults.worker_directive`) and shipped to
  the worker as a plain directive, so fault schedules stay deterministic.
  Workers are not daemonic, so a unit body may run workers of its own.

A worker is expendable — a SIGKILLed worker (OOM killer, preemption, a
segfaulting native lib) costs its own unit one re-dispatch, never the run:

* **crashes** — a worker that dies mid-attempt charges that unit alone and
  is replaced.  The unit is re-dispatched on a fresh worker, the one case
  in which a unit runs more than once, until it has been charged
  ``quarantine_threshold`` crashes; then it stops being re-dispatched and
  becomes a :class:`FailureRecord` with ``kind="worker_crash"``.  A crash loop therefore ends once each crashing
  unit is quarantined, and re-running with ``--resume`` recomputes exactly
  the quarantined units;
* **timeouts** — an attempt that passes ``timeout_s``, measured from
  dispatch, is killed together with its worker and fails its unit as a
  timeout, so the budget also catches a worker stuck in uncooperative
  native code.  A budgeted attempt therefore always runs on a worker, ``jobs == 1``
  included (one worker), and nothing of it outlives its budget;
* **one BLAS thread per worker** — ``jobs > 1`` workers pin OpenBLAS/OpenMP
  to one thread (:func:`repro.runtime.blas.pin_one_thread`), so ``jobs``
  workers never oversubscribe the CPUs with inherited BLAS helper threads.
  A ``jobs > 1`` runner that runs a one-unit batch inline does so under a
  one-thread budget (:func:`repro.runtime.blas.thread_budget`), as a pinned
  worker would; a ``jobs == 1`` runner, and its one worker, keep the
  process's BLAS threads.

Telemetry: when the ambient tracer is enabled, every attempt — inline or in
a worker — runs under a fresh local :class:`~repro.runtime.telemetry.Tracer`
whose snapshot travels back with the value.  Before :meth:`run_units`
returns, the snapshots of successful outcomes are adopted in input order,
so serial and parallel runs produce the same span tree.  Runner counters:
``runner.timeouts``, ``runner.failed_units``, ``runner.worker_crashes``
(worker deaths mid-attempt), ``runner.quarantined`` and (from the shutdown
coordinator) ``runner.signal_shutdowns``.

Checkpoint writes belong in the ``on_result`` callback, which always runs
in the calling process, so every store keeps a single writer.  On workers,
unit functions, their arguments and their results travel by pickle and
must be module-level picklable objects, and per-attempt CPU time must be
measured inside the unit body — a child's CPU time is invisible to the
parent's ``time.process_time()``.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable

from . import blas, faults
from .errors import ShutdownRequested, StageFailure, StageTimeout, WorkerCrashError
from .supervision import shutdown_requested, shutdown_signum
from .telemetry import TelemetrySnapshot, Tracer, activate, get_tracer

#: One schedulable unit of work: ``(unit_name, fn, args, kwargs)``.
UnitSpec = tuple[str, Callable[..., Any], tuple, dict]

#: How long the dispatch loop blocks waiting for worker replies before
#: re-checking the shutdown flag (seconds).
_POLL_S = 0.05


class _AttemptTimeout(Exception):
    """Marker: an attempt exhausted its wall-clock budget.

    Distinct from :class:`TimeoutError` on purpose — on Python 3.11+ the
    builtin is an alias of ``concurrent.futures.TimeoutError`` (and of
    socket/asyncio timeouts), so a unit function raising its *own*
    ``TimeoutError`` must stay an ordinary unit failure, not be mistaken
    for the runner's stage timeout.
    """


@dataclass
class FailureRecord:
    """One failed unit.

    ``elapsed_s`` spans every dispatch of the unit; ``last_attempt_s`` is
    the wall clock of the final one alone.  They differ only when a worker
    crash forced a re-dispatch.  ``run_id`` ties the record to the
    telemetry run that produced it, so a failure log can be joined against
    the run's trace/manifest.  ``kind`` classifies the failure mode —
    ``"error"`` (the unit raised), ``"timeout"`` (wall-clock budget), or
    ``"worker_crash"`` (the unit repeatedly took worker processes down and
    was quarantined by the supervision layer).
    """

    stage: str
    unit: str
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
            "error_type": self.error_type,
            "message": self.message,
            "elapsed_s": round(self.elapsed_s, 3),
            "last_attempt_s": round(self.last_attempt_s, 3),
            "run_id": self.run_id,
            "kind": self.kind,
        }


class FailureLog:
    """Structured record of every unit that failed."""

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
            lines.append(f"  {r.stage}/{r.unit}: {r.error_type} — {r.message}")
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
    body: Callable[[], Any], trace: bool
) -> tuple[Any, TelemetrySnapshot | None]:
    """Run one attempt body; returns ``(value, telemetry snapshot or None)``.

    With ``trace`` the body runs under a fresh local tracer.
    """
    if not trace:
        return body(), None
    local = Tracer()
    with activate(local):
        value = body()
    return value, local.snapshot()


class _WorkerDied(Exception):
    """Marker: the worker running an attempt died before it replied."""


#: A settled attempt: ``(True, (value, snapshot))`` or ``(False, exception)``.
_Settled = tuple[bool, Any]


def _worker_main(conn: connection.Connection, pin_blas: bool) -> None:
    """A worker's life: run attempts read from ``conn`` until told to stop.

    With ``pin_blas`` (a ``jobs > 1`` runner) the worker runs BLAS on one
    thread.  Forked workers inherit the parent's graceful-shutdown handlers
    (:mod:`repro.runtime.supervision`); SIGTERM is restored to its default so
    the worker dies of it like any process, and SIGINT is ignored so a
    terminal Ctrl-C (delivered to the whole foreground process group) is
    coordinated by the parent alone.  ``directive`` is a parent-consumed
    kill/hang fault, executed before the unit body: an injected hang is
    uncooperative, so only the parent's timeout stops it.
    """
    if pin_blas:
        blas.pin_one_thread()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        fn, args, kwargs, trace, directive = task
        faults.execute_directive(directive)
        reply: _Settled
        try:
            reply = (True, _run_attempt(lambda: fn(*args, **kwargs), trace))
        except BaseException as exc:  # noqa: B036 - the parent decides what propagates
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # an unpicklable result: nothing was written
            conn.send((False, RuntimeError(f"cannot send the attempt's result: {exc!r}")))


# -- the workers ---------------------------------------------------------------------


@dataclass(eq=False)
class _UnitState:
    """Parent-side bookkeeping for one unit's dispatches."""

    index: int
    unit: str
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict
    t_start: float | None = None
    t_attempt: float = 0.0  # dispatch time of the latest attempt
    crashes: int = 0  # worker deaths this unit has been charged with


@dataclass(eq=False)
class _Worker:
    """One worker process and the parent's end of its pipe."""

    process: multiprocessing.Process
    conn: connection.Connection
    st: _UnitState | None = None  # the attempt in flight, if any


class _Workers:
    """Up to ``capacity`` worker processes, one attempt and one pipe each.

    Workers pin BLAS to one thread when there is more than one of them.
    """

    def __init__(self, stage: str, capacity: int, timeout_s: float | None, trace: bool):
        self.stage = stage
        self.capacity = capacity
        self.timeout_s = timeout_s
        self.trace = trace
        self.workers: list[_Worker] = []

    @property
    def busy(self) -> int:
        return sum(w.st is not None for w in self.workers)

    def submit(self, st: _UnitState) -> _Settled | None:
        """Fire parent-side faults, then hand the attempt to an idle worker.

        Returns the settled attempt when it failed before reaching a worker
        (an injected error, an unpicklable unit), else ``None``.
        """
        name = f"{self.stage}/{st.unit}"
        try:
            # the fault plan lives in the parent: fire here, not in the
            # worker, so injection is deterministic
            faults.fire(name)
        except Exception as exc:
            return False, exc
        task = (st.fn, st.args, st.kwargs, self.trace, faults.worker_directive(name))
        worker = self._idle()
        try:
            worker.conn.send(task)
        except Exception as exc:  # pickling failed before anything was written
            return False, exc
        worker.st = st
        return None

    def _idle(self) -> _Worker:
        """An idle live worker, started if there is none; reaps idle deaths."""
        for w in list(self.workers):
            if w.st is None:
                if w.process.is_alive():
                    return w
                self._retire(w)
        ours, theirs = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(theirs, self.capacity > 1),
            name=f"{self.stage}-worker",
        )
        process.start()
        theirs.close()
        worker = _Worker(process, ours)
        self.workers.append(worker)
        return worker

    def wait(self, timeout: float) -> list[tuple[_UnitState, bool, Any]]:
        """Settle the attempts whose worker replied, died or overran the budget.

        Blocks up to ``timeout`` seconds (less when a budget expires sooner)
        for a reply or a worker death.  A dead or overdue worker is retired,
        so the next dispatch starts a fresh one.
        """
        busy = [w for w in self.workers if w.st is not None]
        if self.timeout_s is not None:
            expiry = min(w.st.t_attempt for w in busy) + self.timeout_s
            timeout = max(0.0, min(timeout, expiry - time.monotonic()))
        connection.wait([w.conn for w in busy] + [w.process.sentinel for w in busy], timeout)
        now = time.monotonic()
        settled = []
        for w in busy:
            st = w.st
            if w.conn.poll():
                try:
                    ok, payload = w.conn.recv()
                except (EOFError, OSError):  # died before or while replying
                    ok, payload = False, _WorkerDied()
                except Exception as exc:  # a reply this process cannot unpickle
                    ok, payload = False, exc
            elif not w.process.is_alive():
                ok, payload = False, _WorkerDied()
            elif self.timeout_s is not None and now - st.t_attempt >= self.timeout_s:
                ok, payload = False, _AttemptTimeout()
            else:
                continue
            w.st = None
            if isinstance(payload, (_WorkerDied, _AttemptTimeout)):
                self._retire(w)
            settled.append((st, ok, payload))
        return settled

    def _retire(self, w: _Worker) -> None:
        """Kill ``w`` if it still runs, reap it and close its pipe."""
        if w.process.is_alive():
            w.process.kill()
        w.process.join()
        w.process.close()
        w.conn.close()
        self.workers.remove(w)

    def close(self) -> None:
        """Stop every worker: idle ones exit on request, busy ones are killed."""
        for w in list(self.workers):
            if w.st is None:
                with suppress(OSError):  # a dead worker cannot be asked
                    w.conn.send(None)
                w.process.join()
            self._retire(w)


@dataclass
class _Batch:
    """The dispatch loop's state for one :meth:`FaultTolerantRunner.run_units` call."""

    stage: str
    workers: _Workers | None  # None: attempts run inline
    queue: list[_UnitState]  # waiting for dispatch, or re-dispatch after a crash
    on_result: Callable[[str, UnitOutcome], None] | None
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
    """Executes pipeline units, one attempt each, isolated and optionally budgeted.

    ``jobs > 1`` runs batches on up to that many worker processes, and a
    ``timeout_s`` wall-clock budget (seconds, ``> 0``) runs every attempt on
    one; ``quarantine_threshold`` is how many worker crashes one unit may
    cause before it is quarantined (see the module docstring).
    """

    def __init__(
        self,
        fail_fast: bool = False,
        verbose: bool = False,
        *,
        jobs: int = 1,
        timeout_s: float | None = None,
        quarantine_threshold: int = 2,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # a zero or negative budget would time out every attempt at once
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, got {quarantine_threshold}"
            )
        self.fail_fast = fail_fast
        self.verbose = verbose
        self.failures = FailureLog()
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.quarantine_threshold = quarantine_threshold

    def run_unit(
        self,
        stage: str,
        unit: str,
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> UnitOutcome:
        """Run ``fn(*args, **kwargs)`` as the unit ``stage/unit``.

        The unit runs inline, or on one worker under a ``timeout_s`` budget.

        Returns an ok :class:`UnitOutcome` on success.  On a failed unit:
        records it in :attr:`failures`, then raises :class:`StageFailure` if
        ``fail_fast`` else returns a not-ok outcome.
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
        the first failed unit.  No worker process outlives the call, however
        it ends.
        """
        self._register_counters()
        tracer = get_tracer()
        workers = None
        if self.timeout_s is not None or (self.jobs > 1 and len(units) > 1):
            workers = _Workers(stage, self.jobs, self.timeout_s, tracer.enabled)
        batch = _Batch(
            stage,
            workers,
            [_UnitState(i, u, fn, a, k) for i, (u, fn, a, k) in enumerate(units)],
            on_result,
        )
        try:
            with blas.thread_budget(1 if self.jobs > 1 else None):
                abandoned = self._dispatch(batch)
        finally:
            if workers is not None:
                workers.close()
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

        The crash counters are registered here too — an inline run can
        never crash a worker, but its manifest must stay semantically
        identical to a ``--jobs N`` run's (``stable_view`` equality).
        """
        tracer = get_tracer()
        for key in (
            "runner.timeouts",
            "runner.failed_units",
            "runner.worker_crashes",
            "runner.quarantined",
            "runner.signal_shutdowns",
        ):
            tracer.counter(key, 0)

    # -- the dispatch loop ------------------------------------------------------------

    def _dispatch(self, b: _Batch) -> list[_UnitState]:
        """Run the batch to completion; returns the units a shutdown abandoned."""
        abandoned: list[_UnitState] = []
        capacity = 1 if b.workers is None else b.workers.capacity
        while b.queue or (b.workers is not None and b.workers.busy):
            if shutdown_requested() and b.queue:
                # first signal: stop dispatching, drain what is in flight
                abandoned.extend(b.queue)
                b.queue = []
            now = time.monotonic()
            backlog: list[_UnitState] = []
            settled: list[tuple[_UnitState, bool, Any]] = []
            in_flight = 0 if b.workers is None else b.workers.busy
            for st in b.queue:
                # At most ``capacity`` attempts in flight: a dispatched attempt
                # starts at once, so its timeout measures *running* time — and
                # a shutdown signal finds the rest re-dispatchable right here.
                if in_flight + len(settled) >= capacity:
                    backlog.append(st)
                    continue
                if st.t_start is None:
                    st.t_start = now
                st.t_attempt = now
                if b.workers is None:
                    result = self._run_inline(b.stage, st)
                else:
                    result = b.workers.submit(st)
                if result is None:
                    in_flight += 1
                else:
                    settled.append((st, *result))
            b.queue = backlog

            if b.workers is not None and b.workers.busy:
                settled += b.workers.wait(0.0 if settled else _POLL_S)
            for st, ok, payload in settled:
                self._settle(b, st, ok, payload)
        return abandoned

    @staticmethod
    def _run_inline(stage: str, st: _UnitState) -> _Settled:
        """Run one attempt to completion on the calling thread."""

        def body() -> Any:
            faults.fire(f"{stage}/{st.unit}")
            return st.fn(*st.args, **st.kwargs)

        try:
            return True, _run_attempt(body, get_tracer().enabled)
        except Exception as exc:
            return False, exc

    def _settle(self, b: _Batch, st: _UnitState, ok: bool, payload: Any) -> None:
        """Settle one attempt: finish the unit, re-dispatch it, or fail it."""
        if ok:
            value, snapshot = payload
            b.finish(st, UnitOutcome(value=value), snapshot)
        elif isinstance(payload, (KeyboardInterrupt, SystemExit, ShutdownRequested)):
            # a unit body that runs its own batch (a forest fit inside a
            # ``report`` unit) stops with it on a shutdown signal
            raise payload
        elif isinstance(payload, _WorkerDied):
            self._worker_crashed(b, st)
        else:
            self._attempt_failed(b, st, payload)

    def _attempt_failed(self, b: _Batch, st: _UnitState, exc: Exception) -> None:
        """Fail the unit whose one attempt raised or overran its budget."""
        tracer = get_tracer()
        tracer.counter("runner.failed_units")
        if isinstance(exc, _AttemptTimeout):
            tracer.counter("runner.timeouts")
            self._give_up(
                b, st, "timeout", "StageTimeout", f"timed out after {self.timeout_s:g}s",
                StageTimeout(b.stage, st.unit, self.timeout_s), None,
            )
        else:
            message = f"{type(exc).__name__}: {exc}"
            self._give_up(
                b, st, "error", type(exc).__name__, message,
                StageFailure(b.stage, st.unit, message), exc,
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
        """Record ``st`` as failed; raise ``error`` under fail-fast."""
        now = time.monotonic()
        rec = FailureRecord(
            stage=b.stage,
            unit=st.unit,
            error_type=error_type,
            message=message,
            elapsed_s=now - (st.t_start or now),
            # dispatch-to-settle of the final attempt
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

    def _worker_crashed(self, b: _Batch, st: _UnitState) -> None:
        """Charge a worker death to the unit it was running: re-queue or quarantine."""
        tracer = get_tracer()
        tracer.counter("runner.worker_crashes")
        st.crashes += 1
        if self.verbose:
            print(
                f"  worker crash running {b.stage}/{st.unit} (crash #{st.crashes})",
                flush=True,
            )
        if st.crashes >= self.quarantine_threshold:
            tracer.counter("runner.quarantined")
            detail = "worker process died"
            self._give_up(
                b, st, "worker_crash", WorkerCrashError.__name__,
                f"{detail}; {st.crashes} crash(es) charged to this unit — "
                "quarantined as a poison task",
                WorkerCrashError(b.stage, st.unit, st.crashes, detail), None,
            )
            return
        # a crash is an infrastructure failure, not the unit's: run it again
        b.queue.append(st)


class ParallelRunner(FaultTolerantRunner):
    """A :class:`FaultTolerantRunner` whose constructor takes ``jobs`` first."""

    def __init__(
        self,
        jobs: int,
        fail_fast: bool = False,
        verbose: bool = False,
        *,
        timeout_s: float | None = None,
        quarantine_threshold: int = 2,
    ):
        super().__init__(
            fail_fast, verbose,
            jobs=jobs, timeout_s=timeout_s, quarantine_threshold=quarantine_threshold,
        )
