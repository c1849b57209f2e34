"""Graceful-shutdown coordination for long-running commands.

A suite or Table II run is hours of work guarded by per-unit checkpoints, so
a SIGTERM (preemption, ``kubectl delete``, a user's Ctrl-C) should never cost
more than the units currently in flight.  :func:`graceful_shutdown` installs
signal handlers with two-stage semantics:

* **first signal** — sets a process-wide flag (checked by the runners via
  :func:`shutdown_requested` between unit dispatches), bumps the
  ``runner.signal_shutdowns`` counter, and prints a one-line notice.  The
  runners stop dispatching, let in-flight units drain, flush their
  checkpoints, and raise :class:`~repro.runtime.errors.ShutdownRequested`;
  the CLI then writes the telemetry sinks and exits with the documented
  resumable exit code (4) so ``--resume`` continues exactly where the run
  stopped;
* **second signal** — the user means it: restore the default disposition and
  re-raise the signal against the process, producing an immediate hard exit
  with the conventional ``128 + signum`` status.

The coordinator is intentionally a module-level ambient (like the fault plan
and the tracer): exactly one command runs per process, and worker processes
never install it — a worker hit by SIGTERM simply dies, and
:mod:`repro.runtime.runner` charges that to the unit it was running.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from typing import Iterator

from .telemetry import get_tracer

#: Signals the coordinator turns into graceful shutdowns.
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ShutdownCoordinator:
    """Two-stage signal state: request on first signal, hard-exit on second."""

    def __init__(self) -> None:
        self.signum: int | None = None

    @property
    def requested(self) -> bool:
        return self.signum is not None

    def _handle(self, signum: int, frame) -> None:  # noqa: ARG002 - signal API
        if self.requested:
            # second signal: hard exit with the conventional fatal-signal
            # status; default disposition re-raised so the exit reason is
            # visible to the parent (shell, CI runner, supervisor)
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.signum = signum
        get_tracer().counter("runner.signal_shutdowns")
        print(
            f"\nshutdown requested (signal {signum}): finishing in-flight "
            "units, flushing checkpoints — signal again to hard-exit",
            file=sys.stderr,
            flush=True,
        )


#: The active coordinator (None outside ``graceful_shutdown`` blocks).
_ACTIVE: ShutdownCoordinator | None = None


def shutdown_requested() -> bool:
    """Whether a graceful-shutdown signal has been received (ambient check)."""
    return _ACTIVE is not None and _ACTIVE.requested


def shutdown_signum() -> int:
    """The signal number that requested shutdown (0 when none did)."""
    if _ACTIVE is not None and _ACTIVE.signum is not None:
        return _ACTIVE.signum
    return 0


@contextmanager
def graceful_shutdown() -> Iterator[ShutdownCoordinator]:
    """Install two-stage SIGTERM/SIGINT handling for the ``with`` block.

    Nested activation (or activation off the main thread, where Python
    forbids ``signal.signal``) degrades to a no-op coordinator that never
    reports a request, so library callers can wrap unconditionally.
    """
    global _ACTIVE
    coordinator = ShutdownCoordinator()
    if _ACTIVE is not None:
        yield coordinator
        return
    previous: dict[int, object] = {}
    try:
        for sig in SHUTDOWN_SIGNALS:
            previous[sig] = signal.signal(sig, coordinator._handle)
    except ValueError:  # not the main thread: signals are not ours to manage
        for sig, old in previous.items():
            signal.signal(sig, old)  # pragma: no cover - partial install
        yield coordinator
        return
    _ACTIVE = coordinator
    try:
        yield coordinator
    finally:
        _ACTIVE = None
        for sig, old in previous.items():
            signal.signal(sig, old)
