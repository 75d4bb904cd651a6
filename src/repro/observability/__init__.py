"""Dependency-free instrumentation: metrics and tracing.

Two pieces, both off by default and cheap enough to leave compiled into hot
paths (the disabled fast path is a bool check; see
``tests/observability/test_overhead.py``):

- **metrics** — process-local counters, gauges, and timer histograms with
  p50/p95/p99 summaries and JSON export (:class:`Registry`, :func:`inc`,
  :func:`set_gauge`, :func:`observe`, ``with`` :func:`timer`).
- **tracing** — hierarchical spans (:func:`span`) delivered to an in-memory
  :class:`RingBufferSink`; :func:`format_span_tree` renders the
  ``repro-plan --trace`` view.

The one switch is ``enable()`` / ``disable()``.
"""

from repro.observability._state import disable, enable, is_enabled
from repro.observability.metrics import (
    Counter,
    Gauge,
    Registry,
    ValueHistogram,
    get_registry,
    inc,
    observe,
    set_gauge,
    set_registry,
    timer,
)
from repro.observability.tracing import (
    RingBufferSink,
    Span,
    current_span,
    format_span_tree,
    record_event,
    set_sink,
    span,
)

__all__ = [
    # switches
    "enable",
    "disable",
    "is_enabled",
    # metrics
    "Counter",
    "Gauge",
    "ValueHistogram",
    "Registry",
    "get_registry",
    "set_registry",
    "inc",
    "set_gauge",
    "observe",
    "timer",
    # tracing
    "Span",
    "span",
    "record_event",
    "current_span",
    "RingBufferSink",
    "set_sink",
    "format_span_tree",
]
