"""In-memory span recording around the package's public functions.

The traced run replaces selected module attributes (the names the
package's own code looks up at call time) with thin wrappers that record
one span per call: name, start, end, parent and the id of the root call
it belongs to.  Nothing is written until the run ends, and every wrapped
name is put back afterwards, so the untraced end-to-end run never sees a
wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None
    call_id: int
    end_ns: int = 0
    child_ns: int = 0
    error: str | None = None
    result: object = None
    args: tuple = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Duration minus the time covered by child spans."""
        return self.duration_ns - self.child_ns


@dataclass
class Recorder:
    """Collects spans of nested, single-threaded calls."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _call_id: int = 0

    def enter(self, name: str, args: tuple = ()) -> int:
        if self._stack:
            parent = self._stack[-1]
            call_id = self.spans[parent].call_id
        else:
            parent = None
            self._call_id += 1
            call_id = self._call_id
        self.spans.append(Span(name, 0, parent, call_id, args=args))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start_ns = time.perf_counter_ns()
        return index

    def exit(self, index: int, result: object = None, error: str | None = None) -> None:
        end = time.perf_counter_ns()
        span = self.spans[index]
        span.end_ns = end
        span.result = result
        span.error = error
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.duration_ns

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self.enter(name, args)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.exit(index, error=type(exc).__name__)
            raise
        self.exit(index, result)
        return result

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def to_rows(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "call_id": s.call_id,
                "self_ns": s.self_ns,
                "error": s.error,
            }
            for i, s in enumerate(self.spans)
        ]


class Wiring:
    """Wraps module attributes in spans and restores them on exit.

    ``targets`` lists ``(span name, module name, attribute)``; one span
    name may cover the same function at several import sites.  A module
    is reached with :func:`importlib.import_module`, because some
    package attributes (``iavar.variogram``) are re-exported functions
    that shadow the submodule of the same name.  Targets the package no
    longer has are skipped and listed in ``missing``.
    """

    def __init__(self, recorder: Recorder, targets: list[tuple[str, str, str]]):
        self.recorder = recorder
        self.targets = targets
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Wiring":
        for span_name, module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(span_name, fn, *args, **kwargs)

        return traced
