"""Fault-tolerant flow runtime: checkpoints, isolated units, validation, faults.

The paper's protocol (Sec. IV) is an hours-scale pipeline — 14 design flows
feeding a 5-group leave-one-group-out grid search.  This package makes every
long-running path resumable and failure-isolated:

* :mod:`repro.runtime.checkpoint` — atomic write-temp-then-rename persistence
  with SHA-256 content checksums and format-version stamping;
* :mod:`repro.runtime.runner` — one fault-tolerant runner: per-unit
  isolation, one attempt per unit, wall-clock timeouts and a structured
  failure log (``--resume`` recomputes the failed units), executing units
  inline or (``jobs > 1``, or under a timeout) on worker processes it owns,
  one pipe each — a dead worker costs
  only the unit it ran (which is re-dispatched on a fresh worker, or
  quarantined as a structured ``worker_crash`` failure after repeated
  crashes), and an attempt past its timeout is killed together with its
  worker;
* :mod:`repro.runtime.supervision` — two-stage SIGTERM/SIGINT handling:
  first signal drains, checkpoints and flushes (resumable exit), second
  hard-exits;
* :mod:`repro.runtime.validation` — NaN/Inf/shape/dtype guards on feature
  matrices and label vectors;
* :mod:`repro.runtime.errors` — the typed error taxonomy
  (:class:`CacheCorruptionError`, :class:`StageFailure`,
  :class:`ValidationError`);
* :mod:`repro.runtime.faults` — a deterministic fault-injection hook so the
  whole machinery is testable in CI;
* :mod:`repro.runtime.telemetry` — hierarchical span tracing, counters and
  gauges, one ``run_manifest.json`` run document (span tree, stage table,
  metrics, failures) with its loader, and picklable snapshots the runner
  uses to merge each unit's telemetry into the parent in input order.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    atomic_write_bytes,
    fsync_dir,
    sweep_orphan_temps,
)
from .errors import (
    CacheCorruptionError,
    FaultInjected,
    ReproRuntimeError,
    ShutdownRequested,
    StageFailure,
    StageTimeout,
    ValidationError,
    WorkerCrashError,
)
from .faults import FaultSpec, inject_faults
from .runner import (
    FailureLog,
    FailureRecord,
    FaultTolerantRunner,
    ParallelRunner,
    UnitOutcome,
)
from .supervision import graceful_shutdown, shutdown_requested
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    SpanNode,
    TelemetrySnapshot,
    Tracer,
    activate,
    build_manifest,
    get_tracer,
    load_manifest,
    new_run_id,
    stable_view,
    write_manifest,
)
from .validation import validate_features

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "CacheCorruptionError",
    "CheckpointStore",
    "FailureLog",
    "FailureRecord",
    "FaultInjected",
    "FaultSpec",
    "FaultTolerantRunner",
    "ParallelRunner",
    "ReproRuntimeError",
    "ShutdownRequested",
    "SpanNode",
    "StageFailure",
    "StageTimeout",
    "TelemetrySnapshot",
    "Tracer",
    "UnitOutcome",
    "ValidationError",
    "WorkerCrashError",
    "activate",
    "atomic_write_bytes",
    "build_manifest",
    "fsync_dir",
    "get_tracer",
    "graceful_shutdown",
    "inject_faults",
    "load_manifest",
    "new_run_id",
    "shutdown_requested",
    "stable_view",
    "sweep_orphan_temps",
    "validate_features",
    "write_manifest",
]
