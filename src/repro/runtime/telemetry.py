"""Zero-dependency tracing + metrics layer for the whole pipeline.

The paper's efficiency argument (Table II CPU times, the ~1.4 s/sample Tree
SHAP cost) is a *measurement* claim, so the runtime carries a first-class
telemetry substrate instead of scattered ad-hoc timers:

* :class:`Tracer` — hierarchical ``span(name, **attrs)`` context managers
  measuring monotonic wall and process-CPU durations into a process-local
  span tree, plus ``counter``/``gauge`` instruments (router rip-up and maze
  statistics, cache hits/misses/invalidations, checkpoint resume skips,
  retry/timeout/degrade counts, SHAP rows-per-chunk, ...);
* **sinks** — a schema-versioned JSONL trace (one event per span/metric,
  :func:`write_trace`/:func:`load_trace`) and an aggregated
  ``run_manifest.json`` (:func:`build_manifest`/:func:`write_manifest`) with
  a per-stage timing table, metric totals, environment versions and
  failure-log cross-references, written atomically via the checkpoint-store
  primitives;
* **unit snapshots** — the runner (:mod:`repro.runtime.runner`) runs every
  unit attempt, inline or in a worker process, under a fresh local tracer,
  ships the picklable :class:`TelemetrySnapshot` back with the unit's value,
  and :meth:`Tracer.adopt`\\ s the snapshots in input order.  Serial and
  parallel runs therefore produce semantically identical manifests —
  compare them with :func:`stable_view`, which strips the volatile
  timing/pid/run-id fields.

Overhead contract: a *disabled* tracer's ``span`` yields a shared no-op
node and ``counter``/``gauge`` return after one branch, so instrumented
code paths cost nothing measurable when telemetry is off, and no sink file
is ever created unless the caller explicitly writes one.

The active tracer is a module-level ambient (:func:`get_tracer` /
:func:`activate`), not thread-local: the runtime executes at most one unit
body per process at a time (the inline executor's timeout thread included),
and worker processes each install their own tracer.  A timed-out, abandoned
attempt thread may keep writing spans into a tracer that is no longer
active; telemetry is best-effort accounting, never load-bearing state.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Version stamp of the JSONL trace event schema and the manifest layout.
TELEMETRY_SCHEMA_VERSION = 1


@dataclass
class SpanNode:
    """One finished (or open) span: a named, timed node of the span tree."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    pid: int = 0
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        """Wall time spent in this span excluding its children."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    def set(self, **attrs: Any) -> None:
        """Attach result attributes to the span (e.g. iteration counts)."""
        self.attrs.update(attrs)


class _NullNode:
    """The span a disabled tracer yields: every operation is a no-op."""

    __slots__ = ()
    name = ""
    wall_s = cpu_s = self_s = 0.0

    def set(self, **attrs: Any) -> None:
        pass


_NULL_NODE = _NullNode()


@dataclass
class TelemetrySnapshot:
    """Picklable envelope of one tracer's state, for worker → parent shipping."""

    spans: list[SpanNode] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)


def new_run_id() -> str:
    """A human-sortable run identifier: UTC timestamp + pid."""
    return f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-{os.getpid()}"


class Tracer:
    """Collects a span tree plus counter/gauge totals for one run.

    A disabled tracer (``enabled=False``) is the ambient default: spans
    yield a shared no-op node and metric calls return immediately, so
    instrumentation stays in place at zero cost.
    """

    def __init__(self, enabled: bool = True, run_id: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.roots: list[SpanNode] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.failures: list[dict[str, Any]] = []
        self._stack: list[SpanNode] = []

    # -- spans --------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanNode | _NullNode]:
        """Time a named block; nests under the innermost open span."""
        if not self.enabled:
            yield _NULL_NODE
            return
        node = SpanNode(name=name, attrs=dict(attrs), pid=os.getpid())
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(node)
        self._stack.append(node)
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield node
        finally:
            node.wall_s = time.perf_counter() - w0
            node.cpu_s = time.process_time() - c0
            if self._stack and self._stack[-1] is node:
                self._stack.pop()

    # -- instruments --------------------------------------------------------------

    def counter(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a named monotonic counter (``n=0`` registers it)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a named gauge."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def note_failure(self, record: dict[str, Any]) -> None:
        """Cross-reference a failure-log record into this run's telemetry."""
        if not self.enabled:
            return
        self.failures.append(dict(record))

    # -- worker <-> parent --------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """The tracer's whole state as a picklable envelope."""
        return TelemetrySnapshot(
            spans=list(self.roots),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
        )

    def adopt(self, snapshot: TelemetrySnapshot | None) -> None:
        """Merge a worker's snapshot under the innermost open span.

        Counters add, gauges take the snapshot's value (the runner adopts in
        input order, so serial and parallel runs merge identically), and the snapshot's root spans become children of the
        current span (or new roots).
        """
        if snapshot is None or not self.enabled:
            return
        dest = self._stack[-1].children if self._stack else self.roots
        dest.extend(snapshot.spans)
        for name, n in snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        self.gauges.update(snapshot.gauges)


#: The ambient tracer; disabled unless a run installs one via ``activate``.
_DISABLED = Tracer(enabled=False)
_active: Tracer = _DISABLED


def get_tracer() -> Tracer:
    """The currently active tracer (a disabled no-op outside ``activate``)."""
    return _active


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` block."""
    global _active
    prev = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = prev


# -- JSONL trace sink ---------------------------------------------------------------


def trace_events(
    tracer: Tracer, command: str = "", argv: list[str] | None = None
) -> Iterator[dict[str, Any]]:
    """All trace events of a run: meta, spans (DFS order), metrics, failures."""
    yield {
        "ev": "meta",
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "run_id": tracer.run_id,
        "command": command,
        "argv": list(argv or []),
    }
    next_id = iter(range(1, 1 << 31))

    def walk(node: SpanNode, parent_id: int) -> Iterator[dict[str, Any]]:
        span_id = next(next_id)
        yield {
            "ev": "span",
            "id": span_id,
            "parent": parent_id,
            "name": node.name,
            "attrs": node.attrs,
            "wall_s": round(node.wall_s, 6),
            "cpu_s": round(node.cpu_s, 6),
            "pid": node.pid,
        }
        for child in node.children:
            yield from walk(child, span_id)

    for root in tracer.roots:
        yield from walk(root, 0)
    for name in sorted(tracer.counters):
        yield {"ev": "counter", "name": name, "value": tracer.counters[name]}
    for name in sorted(tracer.gauges):
        yield {"ev": "gauge", "name": name, "value": tracer.gauges[name]}
    for rec in tracer.failures:
        yield {"ev": "failure", **rec}


def write_trace(
    tracer: Tracer,
    path: str | Path,
    command: str = "",
    argv: list[str] | None = None,
) -> Path:
    """Atomically write the run's JSONL trace file."""
    from .checkpoint import atomic_write_text  # deferred: avoids an import cycle

    lines = [json.dumps(ev, sort_keys=False) for ev in trace_events(tracer, command, argv)]
    return atomic_write_text(Path(path), "\n".join(lines) + "\n")


@dataclass
class TraceDoc:
    """A trace file loaded back into memory.

    ``dropped`` counts lines skipped by a lenient (``strict=False``) load —
    the truncated or corrupt residue a killed writer leaves behind.
    """

    meta: dict[str, Any]
    roots: list[SpanNode]
    counters: dict[str, float]
    gauges: dict[str, float]
    failures: list[dict[str, Any]]
    dropped: int = 0


def load_trace(path: str | Path, strict: bool = True) -> TraceDoc:
    """Parse a JSONL trace, rebuilding the span tree from id/parent links.

    ``strict=True`` (the default, for tests and tooling that must notice
    corruption) raises on any malformed line.  ``strict=False`` — what the
    ``drcshap trace`` inspector uses — skips truncated or corrupt lines (a
    process killed mid-write tears at most the final line) and reports how
    many were dropped via :attr:`TraceDoc.dropped`.  A wrong schema version
    or a missing meta event stays an error either way: that is a different
    file, not a torn one.
    """
    meta: dict[str, Any] = {}
    roots: list[SpanNode] = []
    by_id: dict[int, SpanNode] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    failures: list[dict[str, Any]] = []
    dropped = 0
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
            kind = ev["ev"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            if strict:
                raise ValueError(f"{path}:{lineno}: not a trace event line") from exc
            dropped += 1
            continue
        try:
            if kind == "meta":
                if ev.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: unsupported trace schema "
                        f"{ev.get('schema_version')!r} (expected {TELEMETRY_SCHEMA_VERSION})"
                    )
                meta = ev
            elif kind == "span":
                node = SpanNode(
                    name=str(ev["name"]),
                    attrs=dict(ev.get("attrs") or {}),
                    wall_s=float(ev.get("wall_s", 0.0)),
                    cpu_s=float(ev.get("cpu_s", 0.0)),
                    pid=int(ev.get("pid", 0)),
                )
                by_id[int(ev["id"])] = node
                parent = by_id.get(int(ev.get("parent", 0)))
                (parent.children if parent is not None else roots).append(node)
            elif kind == "counter":
                counters[str(ev["name"])] = ev["value"]
            elif kind == "gauge":
                gauges[str(ev["name"])] = ev["value"]
            elif kind == "failure":
                failures.append({k: v for k, v in ev.items() if k != "ev"})
            else:
                raise ValueError(f"{path}:{lineno}: unknown event kind {kind!r}")
        except ValueError as exc:
            if strict or "unsupported trace schema" in str(exc):
                raise
            dropped += 1
        except (KeyError, TypeError) as exc:
            if strict:
                raise ValueError(f"{path}:{lineno}: malformed trace event") from exc
            dropped += 1
    if not meta:
        raise ValueError(f"{path}: missing meta event (not a trace file?)")
    return TraceDoc(meta=meta, roots=roots, counters=counters,
                    gauges=gauges, failures=failures, dropped=dropped)


# -- run manifest -------------------------------------------------------------------


def summarize_stages(roots: list[SpanNode]) -> list[dict[str, Any]]:
    """Aggregate the span tree into a per-stage timing table.

    Spans aggregate by their slash-joined *name* path (attributes such as
    the design name are deliberately excluded), so the fourteen per-design
    ``flow/place`` spans collapse into one row with ``count=14``.  Rows are
    sorted by path, making the table deterministic in content ordering.
    """
    table: dict[str, dict[str, Any]] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        row = table.setdefault(
            path, {"path": path, "count": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["wall_s"] += node.wall_s
        row["cpu_s"] += node.cpu_s
        row["self_s"] += node.self_s
        for child in node.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    rows = [table[p] for p in sorted(table)]
    for row in rows:
        for k in ("wall_s", "cpu_s", "self_s"):
            row[k] = round(row[k], 6)
    return rows


def _git_revision() -> str | None:
    """Best-effort git HEAD of the source checkout (no subprocesses)."""
    root = Path(__file__).resolve().parents[3]
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = root / ".git" / text[5:]
            return ref.read_text().strip()[:40]
        return text[:40] or None
    except OSError:
        return None


def build_manifest(
    tracer: Tracer,
    command: str = "",
    argv: list[str] | None = None,
    config: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Aggregate a run's telemetry into the ``run_manifest.json`` document."""
    import numpy as np

    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "run_id": tracer.run_id,
        "command": command,
        "argv": list(argv or []),
        "config": dict(config or {}),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": sys.platform,
            "git": _git_revision(),
        },
        "pid": os.getpid(),
        "stages": summarize_stages(tracer.roots),
        "counters": {k: tracer.counters[k] for k in sorted(tracer.counters)},
        "gauges": {k: tracer.gauges[k] for k in sorted(tracer.gauges)},
        "failures": list(tracer.failures),
    }


def write_manifest(manifest: dict[str, Any], path: str | Path) -> Path:
    """Atomically persist a manifest document."""
    from .checkpoint import atomic_write_text  # deferred: avoids an import cycle

    return atomic_write_text(Path(path), json.dumps(manifest, indent=2) + "\n")


def manifest_path_for(trace_path: str | Path) -> Path:
    """Canonical manifest location next to a trace file."""
    return Path(trace_path).with_suffix(".manifest.json")


#: Failure-record fields that vary between otherwise identical runs.
_VOLATILE_FAILURE_FIELDS = ("elapsed_s", "last_attempt_s", "run_id")


def stable_view(manifest: dict[str, Any]) -> dict[str, Any]:
    """The deterministic projection of a manifest.

    Strips everything that legitimately varies between two semantically
    identical runs — run id, argv/config (``--jobs`` differs), environment
    versions, pids, and every timing field — leaving span structure, span
    counts, metric totals and failure identities.  Serial and parallel runs
    of the same work must compare equal under this view.
    """
    return {
        "schema_version": manifest.get("schema_version"),
        "command": manifest.get("command"),
        "stages": [
            {"path": s["path"], "count": s["count"]}
            for s in manifest.get("stages", [])
        ],
        "counters": manifest.get("counters", {}),
        "gauges": manifest.get("gauges", {}),
        "failures": [
            {k: v for k, v in f.items() if k not in _VOLATILE_FAILURE_FIELDS}
            for f in manifest.get("failures", [])
        ],
    }


# -- rendering (the `drcshap trace` inspector) --------------------------------------


def format_span_tree(roots: list[SpanNode]) -> str:
    """Indented span tree with cumulative / self wall and CPU seconds."""
    lines = [f"{'span':<46s} {'wall_s':>9s} {'self_s':>9s} {'cpu_s':>9s}"]

    def label(node: SpanNode) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in node.attrs.items())
        return f"{node.name} {attrs}".rstrip()

    def walk(node: SpanNode, depth: int) -> None:
        text = f"{'  ' * depth}{label(node)}"
        lines.append(
            f"{text:<46s} {node.wall_s:>9.3f} {node.self_s:>9.3f} {node.cpu_s:>9.3f}"
        )
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def format_top_spans(roots: list[SpanNode], n: int = 5) -> str:
    """The ``n`` slowest spans by self time, with their full paths."""
    flat: list[tuple[float, str]] = []

    def walk(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        flat.append((node.self_s, path))
        for child in node.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    flat.sort(key=lambda t: (-t[0], t[1]))
    lines = [f"top {min(n, len(flat))} spans by self time:"]
    for self_s, path in flat[:n]:
        lines.append(f"  {self_s:>9.3f}s  {path}")
    return "\n".join(lines)


def format_metrics(counters: dict[str, float], gauges: dict[str, float]) -> str:
    """Counter and gauge totals, sorted by name."""
    lines = ["counters:"]
    if not counters:
        lines.append("  (none)")
    for name in sorted(counters):
        value = counters[name]
        lines.append(f"  {name:<36s} {value:g}")
    lines.append("gauges:")
    if not gauges:
        lines.append("  (none)")
    for name in sorted(gauges):
        lines.append(f"  {name:<36s} {gauges[name]:g}")
    return "\n".join(lines)
