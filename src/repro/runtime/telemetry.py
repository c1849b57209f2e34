"""Zero-dependency tracing + metrics layer for the whole pipeline.

The paper's efficiency argument (Table II CPU times, the ~1.4 s/sample Tree
SHAP cost) is a *measurement* claim, so the runtime carries a first-class
telemetry substrate instead of scattered ad-hoc timers:

* :class:`Tracer` — hierarchical ``span(name, **attrs)`` context managers
  measuring monotonic wall and process-CPU durations into a process-local
  span tree, plus ``counter``/``gauge`` instruments (router rip-up and maze
  statistics, cache hits/misses/invalidations, checkpoint resume skips,
  timeout/crash/degrade counts, SHAP rows-per-chunk, ...);
* **the run document** — one schema-versioned ``run_manifest.json``
  (:func:`build_manifest`/:func:`write_manifest`, read back by
  :func:`load_manifest`) holding the full span tree with its attributes,
  the per-stage timing table derived from it, metric totals, environment
  versions and failure-log cross-references, written atomically via the
  checkpoint-store primitives and rendered by :func:`render_manifest`;
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
body per process at a time, on the calling thread or in a worker process
that installs its own tracer, and a timed-out attempt dies with its worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import blas

#: Version stamp of the run manifest layout (2: the manifest carries ``spans``).
TELEMETRY_SCHEMA_VERSION = 2


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


# -- run manifest -------------------------------------------------------------------


def _walk(roots: list[SpanNode]) -> Iterator[tuple[int, str, SpanNode]]:
    """Depth-first ``(depth, slash-joined name path, node)`` over a span forest."""
    stack = [(0, root.name, root) for root in reversed(roots)]
    while stack:
        depth, path, node = stack.pop()
        yield depth, path, node
        stack.extend((depth + 1, f"{path}/{c.name}", c) for c in reversed(node.children))


def summarize_stages(roots: list[SpanNode]) -> list[dict[str, Any]]:
    """Aggregate the span tree into a per-stage timing table.

    Spans aggregate by their slash-joined *name* path (attributes such as
    the design name are deliberately excluded), so the fourteen per-design
    ``flow/place`` spans collapse into one row with ``count=14``.  Rows are
    sorted by path, making the table deterministic in content ordering.
    """
    table: dict[str, dict[str, Any]] = {}
    for _depth, path, node in _walk(roots):
        row = table.setdefault(
            path, {"path": path, "count": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["wall_s"] += node.wall_s
        row["cpu_s"] += node.cpu_s
        row["self_s"] += node.self_s
    rows = [table[p] for p in sorted(table)]
    for row in rows:
        for k in ("wall_s", "cpu_s", "self_s"):
            row[k] = round(row[k], 6)
    return rows


def _git_revision(root: Path | None = None) -> str | None:
    """Best-effort git HEAD of the source checkout (no subprocesses).

    A branch ref missing from ``.git/refs`` is looked up in
    ``.git/packed-refs``, where ``git pack-refs`` and ``git clone`` put it.
    """
    git = (root or Path(__file__).resolve().parents[3]) / ".git"
    try:
        text = (git / "HEAD").read_text().strip()
        if not text.startswith("ref: "):
            return text[:40] or None
        ref = text[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:40]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:40]
    except OSError:
        pass
    return None


def _span_doc(node: SpanNode) -> dict[str, Any]:
    return {
        "name": node.name,
        "attrs": node.attrs,
        "wall_s": round(node.wall_s, 6),
        "cpu_s": round(node.cpu_s, 6),
        "pid": node.pid,
        "children": [_span_doc(c) for c in node.children],
    }


def _span_node(doc: dict[str, Any]) -> SpanNode:
    return SpanNode(
        name=str(doc["name"]),
        attrs=dict(doc["attrs"]),
        wall_s=float(doc["wall_s"]),
        cpu_s=float(doc["cpu_s"]),
        pid=int(doc["pid"]),
        children=[_span_node(c) for c in doc["children"]],
    )


def build_manifest(
    tracer: Tracer,
    command: str = "",
    argv: list[str] | None = None,
    config: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A run's telemetry as the one ``run_manifest.json`` document.

    ``spans`` is the full span tree (name, attrs, wall/CPU seconds, pid,
    children); ``stages`` is the per-stage table derived from it.
    ``versions`` also records the environment that shapes the timings: the
    CPU count, the loaded OpenBLAS thread counts at write time and the
    process start method of ``--jobs`` workers.
    """
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
            "cpu_count": os.cpu_count(),
            "blas_threads": blas.thread_counts(),
            "start_method": (multiprocessing.get_start_method(allow_none=True)
                             or multiprocessing.get_all_start_methods()[0]),
        },
        "pid": os.getpid(),
        "spans": [_span_doc(root) for root in tracer.roots],
        "stages": summarize_stages(tracer.roots),
        "counters": {k: tracer.counters[k] for k in sorted(tracer.counters)},
        "gauges": {k: tracer.gauges[k] for k in sorted(tracer.gauges)},
        "failures": list(tracer.failures),
    }


def write_manifest(manifest: dict[str, Any], path: str | Path) -> Path:
    """Atomically persist a manifest document."""
    from .checkpoint import atomic_write_text  # deferred: avoids an import cycle

    return atomic_write_text(Path(path), json.dumps(manifest, indent=2) + "\n")


_MANIFEST_KEYS = (
    "schema_version", "run_id", "command", "argv", "config", "versions",
    "pid", "spans", "stages", "counters", "gauges", "failures",
)


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest back, its ``spans`` rebuilt as :class:`SpanNode` trees.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` if it
    is not a manifest of this schema version: not JSON (a JSONL trace of
    older releases included), not an object, another ``schema_version``, a
    missing key, or a span, stage row, metric or failure of the wrong shape.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON run manifest ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    if doc.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported manifest schema {doc.get('schema_version')!r} "
            f"(expected {TELEMETRY_SCHEMA_VERSION})"
        )
    missing = [k for k in _MANIFEST_KEYS if k not in doc]
    if missing:
        raise ValueError(f"{path}: manifest lacks {', '.join(missing)}")
    try:
        doc["spans"] = [_span_node(s) for s in doc["spans"]]
        doc["stages"] = [
            {"path": str(r["path"]), "count": int(r["count"]),
             **{k: float(r[k]) for k in ("wall_s", "cpu_s", "self_s")}}
            for r in doc["stages"]
        ]
        for key in ("counters", "gauges"):
            doc[key] = {str(k): float(v) for k, v in doc[key].items()}
        doc["versions"] = dict(doc["versions"])
        doc["failures"] = [dict(f) for f in doc["failures"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc!r})") from exc
    return doc


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


def render_manifest(manifest: dict[str, Any], top: int = 5) -> str:
    """Human view of a loaded manifest (see :func:`load_manifest`).

    Run id, command and versions; the span tree with attributes and
    cumulative / self wall and CPU seconds; the ``top`` spans by self time;
    the stage table; counter and gauge totals; failures as
    ``kind:stage/unit``.
    """
    roots: list[SpanNode] = manifest["spans"]
    tree = [
        ((f"{'  ' * depth}{node.name} "
          + " ".join(f"{k}={v}" for k, v in node.attrs.items())).rstrip(), node)
        for depth, _path, node in _walk(roots)
    ]
    width = max([46, *(len(label) for label, _node in tree)])
    lines = [
        f"run      : {manifest['run_id']}",
        f"command  : {manifest['command']}",
        "versions : " + " ".join(f"{k}={v}" for k, v in manifest["versions"].items()),
        "",
        f"{'span':<{width}s} {'wall_s':>9s} {'self_s':>9s} {'cpu_s':>9s}",
    ]
    for label, node in tree:
        lines.append(
            f"{label:<{width}s} {node.wall_s:>9.3f} {node.self_s:>9.3f} {node.cpu_s:>9.3f}"
        )

    flat = sorted(((n.self_s, path) for _d, path, n in _walk(roots)),
                  key=lambda t: (-t[0], t[1]))[:top]
    lines += ["", f"top {len(flat)} spans by self time:"]
    lines += [f"  {self_s:>9.3f}s  {path}" for self_s, path in flat]

    width = max([40, *(len(row["path"]) for row in manifest["stages"])])
    lines += ["", f"{'stage':<{width}s} {'count':>6s} {'wall_s':>9s} {'self_s':>9s} {'cpu_s':>9s}"]
    for row in manifest["stages"]:
        lines.append(
            f"{row['path']:<{width}s} {row['count']:>6d} {row['wall_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['cpu_s']:>9.3f}"
        )

    lines.append("")
    for title in ("counters", "gauges"):
        values = manifest[title]
        lines.append(f"{title}:")
        lines += [f"  {k:<36s} {values[k]:g}" for k in sorted(values)] or ["  (none)"]

    failures = manifest["failures"]
    if failures:
        lines += ["", f"failures : {len(failures)}"]
        for rec in failures:
            lines.append(
                f"  {rec.get('kind', '?')}:{rec.get('stage', '?')}/{rec.get('unit', '?')} "
                f"{rec.get('error_type', '')}: {rec.get('message', '')}"
            )
    return "\n".join(lines)
