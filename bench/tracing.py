"""In-memory spans around the benchmark's calls into msetdim's public functions.

A span records one call: its name (``<layer>.<call>``), start, end, parent span
and op id.  Spans stay in memory while the benchmark runs and are written out
when it ends.  With tracing off, `NullTracer` runs each call bare and skips the
repeated sub-steps, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("graphs", "signatures", "construction", "localization", "exact", "cli")


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    substep: bool
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: calls run bare, repeated sub-steps do not run."""

    enabled = False

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)

    def substep(self, name, fn, *args, attrs=None, **kwargs):
        return None

    def note(self, **attrs):
        pass

    @contextmanager
    def root(self, name, op):
        yield


class Tracer:
    """Tracing on: one span per call, kept in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._last: Span | None = None

    def _open(self, name: str, op: int | None, attrs: dict | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            op=op if parent is None else parent.op,
            parent=None if parent is None else parent.id,
            substep=name == "substeps" or bool(parent and parent.substep),
            attrs=dict(attrs or {}),
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._last = span

    def note(self, **attrs):
        """Attach attributes to the span that closed last."""
        self._last.attrs.update(attrs)

    def call(self, name, fn, *args, attrs=None, **kwargs):
        span = self._open(name, None, attrs)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    # A repeated sub-step is an ordinary call under the "substeps" root.
    substep = call

    @contextmanager
    def root(self, name, op):
        """Top-level span: "op" for the timed calls, "substeps" for the extras."""
        span = self._open(name, op, None)
        try:
            yield
        finally:
            self._close(span)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
