"""Deterministic fault injection into named runtime stages.

CI cannot rely on real crashes, slow disks, or bit-rot to exercise the
fault-tolerant runtime, so this module lets tests *schedule* them::

    with inject_faults(
        FaultSpec(stage="flow/mult_1", kind="error", times=1),
        FaultSpec(stage="checkpoint/fft_b*", kind="corrupt"),
    ) as plan:
        build_suite_dataset(...)
    assert plan.triggered == [...]

Stages are hierarchical names (``"flow/mult_1"``, ``"experiment/RF__g2"``,
``"checkpoint/<key>"``) matched with :func:`fnmatch.fnmatch`, so a spec can
target one unit or a whole family.  Each spec fires on its first ``times``
matches, so a family pattern or a repeated ``kill`` fires a known number of
times.

Four fault kinds:

* ``"error"``  — raise ``exception(message)`` at the start of the attempt;
* ``"corrupt"`` — flip bytes of an artefact file just after it is written
  (trips checksums on the next load);
* ``"kill"``   — ``os.kill(os.getpid(), SIGKILL)`` *inside a worker
  process* (exercises crash re-dispatch and quarantine);
* ``"hang"``   — sleep ``delay_s`` inside a worker without returning
  (exercises the timeout, which kills the attempt with its worker).

``error`` faults fire in the runner's process, whether the attempt runs
inline or on a worker.  ``kill`` and ``hang`` are worker-side faults: the
parent consumes the spec deterministically at dispatch
(:func:`worker_directive`) and ships a plain directive tuple to the worker,
so the plan's trigger bookkeeping stays in one process even though the
crash happens in another.  They fire wherever an attempt runs on a worker
(a ``jobs > 1`` batch of two or more units, or any run with a timeout) and
are deliberately ignored by :func:`fire` — an inline run SIGKILLing itself
would take the whole run (and the test harness) down with it.

Production code calls the module-level hooks :func:`fire`,
:func:`worker_directive` and :func:`corrupt_artifact`; all are no-ops
unless a plan is active, so the hooks cost one attribute check on the hot
path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterator

from .errors import FaultInjected


@dataclass
class FaultSpec:
    """One scheduled fault against a stage-name pattern."""

    stage: str  # fnmatch pattern against hierarchical stage names
    kind: str = "error"  # "error" | "corrupt" | "kill" | "hang"
    times: int = 1  # how many matching calls trigger before the spec disarms
    exception: type[Exception] = FaultInjected
    message: str = "injected fault"
    delay_s: float = 0.05

    #: mutable trigger bookkeeping (not part of the spec identity)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("error", "corrupt", "kill", "hang"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def should_fire(self, stage: str) -> bool:
        if not fnmatch(stage, self.stage) or self.fired >= self.times:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """An active set of fault specs plus a record of what actually fired."""

    def __init__(self, *specs: FaultSpec):
        self.specs = list(specs)
        self.triggered: list[tuple[str, str]] = []  # (stage, kind) in fire order

    def fire(self, stage: str) -> None:
        """Raise per the first armed error-spec matching ``stage``."""
        for spec in self.specs:
            if spec.kind == "error" and spec.should_fire(stage):
                self.triggered.append((stage, spec.kind))
                raise spec.exception(f"{spec.message} @ {stage}")

    def worker_directive(self, stage: str) -> tuple[str, float] | None:
        """Consume an armed kill/hang spec for ``stage`` (parent-side).

        Returns the picklable ``(kind, delay_s)`` directive that the worker
        executes, or ``None``.  Consuming in the parent keeps the plan's
        trigger bookkeeping deterministic regardless of worker scheduling.
        """
        for spec in self.specs:
            if spec.kind not in ("kill", "hang") or not spec.should_fire(stage):
                continue
            self.triggered.append((stage, spec.kind))
            return (spec.kind, spec.delay_s)
        return None

    def corrupt_artifact(self, stage: str, path: Path) -> bool:
        """Flip bytes in ``path`` per any armed corrupt-spec matching ``stage``."""
        corrupted = False
        for spec in self.specs:
            if spec.kind != "corrupt" or not spec.should_fire(stage):
                continue
            self.triggered.append((stage, spec.kind))
            _flip_bytes(Path(path))
            corrupted = True
        return corrupted


def _flip_bytes(path: Path, n: int = 16) -> None:
    """Deterministically invert ``n`` bytes in the middle of the file."""
    data = bytearray(path.read_bytes())
    if not data:
        return
    start = len(data) // 2
    for i in range(start, min(start + n, len(data))):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))


#: The currently active plan (None outside ``inject_faults`` blocks).
_ACTIVE: FaultPlan | None = None


@contextmanager
def inject_faults(*specs: FaultSpec) -> Iterator[FaultPlan]:
    """Activate a fault plan for the duration of the ``with`` block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault plans do not nest")
    plan = FaultPlan(*specs)
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def fire(stage: str) -> None:
    """Hook called by the runner at the start of every unit attempt."""
    if _ACTIVE is not None:
        _ACTIVE.fire(stage)


def worker_directive(stage: str) -> tuple[str, float] | None:
    """Hook called by the runner when dispatching an attempt to a worker process."""
    if _ACTIVE is not None:
        return _ACTIVE.worker_directive(stage)
    return None


def corrupt_artifact(stage: str, path: Path) -> bool:
    """Hook called by the checkpoint store after writing an artefact."""
    if _ACTIVE is not None:
        return _ACTIVE.corrupt_artifact(stage, path)
    return False


def execute_directive(directive: tuple[str, float] | None) -> None:
    """Execute a kill/hang directive inside a worker process.

    ``kill`` raises SIGKILL against the *current* process — exactly what the
    OOM killer or a preempting scheduler does — after sleeping ``delay_s``
    (a deterministic point in the attempt at which it dies); ``hang`` sleeps
    ``delay_s`` without any cooperation with timeouts, which is how a stuck
    native library looks from the parent.
    """
    if directive is None:
        return
    kind, delay_s = directive
    if kind == "kill":
        import os
        import signal

        if delay_s > 0:
            time.sleep(delay_s)
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(delay_s)
