"""Lightweight hierarchical tracing.

A *span* is one timed region of work with a name, user attributes, and child
spans::

    with span("strategy.compute", strategy="mean_doubling") as sp:
        ...
        if sp is not None:
            sp.set("iterations", n)

Spans nest through a :mod:`contextvars` stack (thread- and async-safe); a
completed *root* span is delivered to the sink: an in-memory
:class:`RingBufferSink` (``set_sink`` swaps in another one, e.g. to read
back one test's spans).

When instrumentation is disabled (the default), ``span(...)`` yields ``None``
and records nothing — call sites guard attribute writes with
``if sp is not None``.
"""

from __future__ import annotations

import contextlib
import contextvars
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.observability._state import STATE

__all__ = [
    "Span",
    "span",
    "record_event",
    "current_span",
    "RingBufferSink",
    "set_sink",
    "format_span_tree",
]


@dataclass
class Span:
    """One timed region of work (and its children)."""

    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    start: float = 0.0  # perf_counter timestamp
    duration: float = 0.0  # seconds; filled when the span closes
    children: List["Span"] = field(default_factory=list)

    def set(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute."""
        self.attrs[key] = value

    @property
    def self_time(self) -> float:
        """Duration not attributed to any child."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration_s": self.duration,
            "attrs": self.attrs,
            "children": [c.to_dict() for c in self.children],
        }


class RingBufferSink:
    """Keeps the most recent ``capacity`` completed root spans in memory."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._spans: deque = deque(maxlen=capacity)

    def emit(self, span_: Span) -> None:
        self._spans.append(span_)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()


_SINK = RingBufferSink()
_CURRENT: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_current_span", default=None
)


def set_sink(sink) -> object:
    """Swap the sink for completed root spans (returns the previous one)."""
    global _SINK
    old, _SINK = _SINK, sink
    return old


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None`` (also when disabled)."""
    return _CURRENT.get()


@contextlib.contextmanager
def span(name: str, **attrs) -> Iterator[Optional[Span]]:
    """Open a child span of the current one (or a new root span).

    Yields the :class:`Span` when instrumentation is enabled, else ``None``.
    """
    if not STATE.enabled:
        yield None
        return
    sp = Span(name=name, attrs=dict(attrs), start=_time.perf_counter())
    parent = _CURRENT.get()
    token = _CURRENT.set(sp)
    try:
        yield sp
    finally:
        sp.duration = _time.perf_counter() - sp.start
        _CURRENT.reset(token)
        if parent is not None:
            parent.children.append(sp)
        else:
            _SINK.emit(sp)


def record_event(name: str, duration: float = 0.0, **attrs) -> Optional[Span]:
    """Record an already-finished unit of work as a closed span.

    Used where a context manager does not fit the call protocol (e.g. one
    span per :class:`~repro.runtime.session.ReservationSession` attempt,
    whose lifetime straddles ``next_request``/``report_*`` calls).
    """
    if not STATE.enabled:
        return None
    sp = Span(
        name=name,
        attrs=dict(attrs),
        start=_time.perf_counter() - duration,
        duration=duration,
    )
    parent = _CURRENT.get()
    if parent is not None:
        parent.children.append(sp)
    else:
        _SINK.emit(sp)
    return sp


def _format_attrs(attrs: Dict[str, object]) -> str:
    if not attrs:
        return ""
    parts = []
    for k, v in attrs.items():
        if isinstance(v, float):
            parts.append(f"{k}={v:.6g}")
        else:
            parts.append(f"{k}={v}")
    return "  [" + " ".join(parts) + "]"


def format_span_tree(root: Span, min_duration: float = 0.0) -> str:
    """Render a span and its descendants as an indented tree with timings.

    Children quicker than ``min_duration`` seconds are elided (a summary line
    notes how many).
    """
    total = root.duration or 1e-12
    lines: List[str] = []

    def walk(sp: Span, depth: int) -> None:
        pct = 100.0 * sp.duration / total
        lines.append(
            f"{'  ' * depth}{sp.name:<{max(1, 36 - 2 * depth)}} "
            f"{1e3 * sp.duration:10.3f} ms  {pct:5.1f}%"
            f"{_format_attrs(sp.attrs)}"
        )
        shown = [c for c in sp.children if c.duration >= min_duration]
        hidden = len(sp.children) - len(shown)
        for child in shown:
            walk(child, depth + 1)
        if hidden:
            lines.append(f"{'  ' * (depth + 1)}... ({hidden} faster spans elided)")

    walk(root, 0)
    return "\n".join(lines)
