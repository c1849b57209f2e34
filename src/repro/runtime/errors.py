"""The typed error taxonomy of the fault-tolerant runtime.

Every failure the runtime can surface is one of these, so callers (the CLI,
the suite builder, tests) can branch on *kind* of failure instead of string
matching.  :class:`CacheCorruptionError` and :class:`ValidationError` also
subclass :class:`ValueError` so pre-runtime callers that caught ``ValueError``
keep working.
"""

from __future__ import annotations


class ReproRuntimeError(Exception):
    """Base class for every error raised by :mod:`repro.runtime`."""

    def __reduce__(self):
        # Exception's default pickling re-calls ``cls(*self.args)``, which
        # breaks every subclass whose __init__ takes the fields rather than
        # the message; rebuild from the message and the attributes instead,
        # so an error raised in a worker process reaches the parent intact.
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls: type[ReproRuntimeError], args: tuple) -> ReproRuntimeError:
    err = cls.__new__(cls)
    err.args = args
    return err


class CacheCorruptionError(ReproRuntimeError, ValueError):
    """A cached artefact is truncated, checksum-mismatched, or the wrong
    format version.  The remedy is always the same: invalidate and rebuild."""


class ValidationError(ReproRuntimeError, ValueError):
    """A feature matrix or label vector failed an integrity guard
    (NaN/Inf values, wrong shape, wrong dtype, non-binary labels)."""


class StageFailure(ReproRuntimeError):
    """A pipeline unit failed its one attempt.

    The runner raises it under ``fail_fast``, and callers that cannot skip
    a failed unit raise it themselves.  Carries the stage/unit identity; the
    causing exception is chained via ``__cause__``.
    """

    def __init__(self, stage: str, unit: str, message: str = ""):
        self.stage = stage
        self.unit = unit
        super().__init__(f"{stage}/{unit}: {message or 'failed'}")


class StageTimeout(StageFailure):
    """A unit exceeded its wall-clock timeout budget."""

    def __init__(self, stage: str, unit: str, timeout_s: float):
        self.timeout_s = timeout_s
        super().__init__(stage, unit, f"timed out after {timeout_s:g}s")


class WorkerCrashError(ReproRuntimeError):
    """The worker process running a unit died mid-attempt (SIGKILL, OOM,
    segfault).  Carries the unit identity and how many worker deaths that
    unit has now caused, so the runner can decide between re-dispatch and
    quarantine."""

    def __init__(self, stage: str, unit: str, crashes: int, detail: str = ""):
        self.stage = stage
        self.unit = unit
        self.crashes = crashes
        super().__init__(
            f"{stage}/{unit}: worker crashed ({detail or 'process died'}; "
            f"crash #{crashes} for this unit)"
        )


class ShutdownRequested(ReproRuntimeError):
    """A graceful-shutdown signal (SIGTERM/SIGINT) interrupted the run.

    Raised by the runners *between* units once the shutdown coordinator's
    flag is set: everything already completed has been checkpointed, so the
    run is resumable with ``--resume``.  ``pending`` lists the units that
    were never dispatched or had to be abandoned.
    """

    def __init__(self, stage: str, signum: int, pending: list[str] | None = None):
        self.stage = stage
        self.signum = signum
        self.pending = list(pending or [])
        left = f"; {len(self.pending)} unit(s) left" if self.pending else ""
        super().__init__(
            f"{stage}: shutdown requested by signal {signum}{left} — "
            "checkpoints flushed, rerun with --resume to continue"
        )
