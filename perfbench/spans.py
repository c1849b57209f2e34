"""Span recorder for the traced run.

The traced run times calls into the program's public functions from the
benchmark's own files: :func:`patched` swaps a module global or a class
attribute for a wrapper that opens a span around each call, and restores
the original on exit.  Spans are kept in memory, in the order the program
makes the calls, and are written out once the run ends.

A layer's *self time* is the wall time of its spans minus the part their
child spans cover, so nested layers (a fit inside a grid search, a
re-binning inside a fit) are never counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass
class Span:
    """One call into a layer."""

    layer: str
    parent: int  # index of the enclosing span in ``SpanRecorder.spans``; -1 at the root
    start: float
    end: float = 0.0
    cpu_s: float = 0.0  # process CPU (all threads) while the span was open
    child_s: float = 0.0  # wall time covered by direct child spans

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s


class SpanRecorder:
    """Keeps every span and counter of one traced phase in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span = Span(layer, self._open[-1] if self._open else -1, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        cpu0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu_s = time.process_time() - cpu0
            self._open.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.wall_s

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open around the current call."""
        return any(self.spans[i].layer == layer for i in self._open)

    def of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]

    def self_s(self, *layers: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer in layers)

    def to_json(self) -> list[dict[str, Any]]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"layer": s.layer, "parent": s.parent, "start_s": s.start - t0,
             "wall_s": s.wall_s, "self_s": s.self_s, "cpu_s": s.cpu_s}
            for s in self.spans
        ]


#: ``layer`` of a hook: a fixed name, or a function of the call's positional
#: arguments that names the layer, or returns ``None`` to leave the call
#: untimed (its time then stays with the enclosing span).
Layer = str | Callable[[tuple], str | None]
#: Called after each timed call with (recorder, result, positional args).
OnResult = Callable[[SpanRecorder, Any, tuple], None]


@dataclass(frozen=True)
class Hook:
    """Time every call to ``owner.attr`` (a module global or class attribute)."""

    owner: Any
    attr: str
    layer: Layer
    on_result: OnResult | None = None


def _wrap(recorder: SpanRecorder, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        layer = hook.layer(args) if callable(hook.layer) else hook.layer
        if layer is None:
            return fn(*args, **kwargs)
        result = recorder.call(layer, fn, *args, **kwargs)
        if hook.on_result is not None:
            hook.on_result(recorder, result, args)
        return result

    return timed


@contextmanager
def patched(recorder: SpanRecorder, hooks: list[Hook]) -> Iterator[SpanRecorder]:
    """Install every hook for the duration of the block, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for hook in hooks:
            if hook.attr not in vars(hook.owner):
                raise AttributeError(f"{hook.owner!r} defines no {hook.attr!r} of its own")
            original = inspect.getattr_static(hook.owner, hook.attr)
            saved.append((hook.owner, hook.attr, original))
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(_wrap(recorder, hook, original.__func__))
            else:
                wrapped = _wrap(recorder, hook, original)
            setattr(hook.owner, hook.attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
