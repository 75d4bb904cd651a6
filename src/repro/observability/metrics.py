"""Process-local metrics: counters, gauges, and timer/value histograms.

A :class:`Registry` maps names to metric objects and renders the whole set as
a JSON document (``repro-plan --metrics-out``, the experiment harness's
``<name>.metrics.json`` side files).  The module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`, ``with`` :func:`timer`) are the one
recording API: they write into a swappable default registry and no-op when
instrumentation is disabled — the disabled path is one attribute read + bool
check, so the calls can stay in hot loops.

Every metric object carries its own lock and the registry locks its name
maps, so concurrent recording from the ``repro.service`` worker pools and
the threaded HTTP front end is lossless (see
``tests/observability/test_metrics_concurrency.py``).  The disabled fast
path never touches a lock.

No external dependencies; everything is plain stdlib.
"""

from __future__ import annotations

import json
import math
import threading
import time as _time
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.observability._state import STATE

__all__ = [
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
]

#: Retained observations per histogram for quantile estimation.  Counts and
#: totals stay exact beyond this; quantiles are over the most recent window.
HISTOGRAM_WINDOW = 65_536


class Counter:
    """Monotonic counter (safe to increment from multiple threads)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def to_dict(self) -> float:
        v = self.value
        return int(v) if float(v).is_integer() else v


class Gauge:
    """Last-value gauge with min/max watermarks."""

    __slots__ = ("name", "value", "min", "max", "n_sets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = math.nan
        self.min = math.inf
        self.max = -math.inf
        self.n_sets = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.value = value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            self.n_sets += 1

    def to_dict(self) -> Dict[str, float]:
        if self.n_sets == 0:
            return {"value": None, "min": None, "max": None, "n_sets": 0}
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "n_sets": self.n_sets,
        }


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (q in [0, 100])."""
    if not ordered:
        return math.nan
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class ValueHistogram:
    """Streaming summary of observed values (durations, queue depths, ...).

    Keeps exact ``count``/``total``/``min``/``max`` and a bounded window of
    recent observations for the p50/p95/p99 summaries.
    """

    __slots__ = ("name", "unit", "count", "total", "min", "max", "_window", "_lock")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._window: deque = deque(maxlen=HISTOGRAM_WINDOW)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._window.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained window (q in [0, 100])."""
        with self._lock:  # snapshot: sorting a live deque races with observe()
            window = list(self._window)
        return _nearest_rank(sorted(window), q)

    def to_dict(self) -> Dict[str, float]:
        # One consistent snapshot under the lock (a copy is ~30x cheaper than
        # a sort of the full window); the single sort runs outside it so a
        # scrape never stalls observe().
        with self._lock:
            count, total = self.count, self.total
            lo, hi = self.min, self.max
            window = list(self._window)
        if count == 0:
            return {"count": 0}
        ordered = sorted(window)
        out = {
            "count": count,
            "total": total,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": _nearest_rank(ordered, 50),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
        }
        if self.unit:
            out["unit"] = self.unit
        return out


class _TimerHandle:
    """Context manager recording wall time into a registry.

    ``__enter__`` short-circuits to a no-op when instrumentation is disabled.
    A handle holds one timing at a time: take a fresh one per ``with``.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "Registry", name: str):
        self._registry = registry
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "_TimerHandle":
        self._start = _time.perf_counter() if STATE.enabled else None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._start is not None:
            self._registry.observe_timer(
                self._name, _time.perf_counter() - self._start
            )
            self._start = None
        return False


class Registry:
    """Named collection of counters, gauges, timers, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, ValueHistogram] = {}
        self._histograms: Dict[str, ValueHistogram] = {}
        self._lock = threading.Lock()

    # -- accessors (create on first use) -------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str, unit: str = "") -> ValueHistogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, ValueHistogram(name, unit=unit))
        return h

    def timer(self, name: str) -> _TimerHandle:
        """Handle for ``with registry.timer("x"): ...``; durations land in
        the ``timers`` section as seconds."""
        return _TimerHandle(self, name)

    def observe_timer(self, name: str, seconds: float) -> None:
        """Record an already-measured duration (always records; the enabled
        check belongs to whoever took the timing)."""
        t = self._timers.get(name)
        if t is None:
            with self._lock:
                t = self._timers.setdefault(name, ValueHistogram(name, unit="s"))
        t.observe(seconds)

    def timer_total(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0.0 if never observed)."""
        t = self._timers.get(name)
        return t.total if t is not None else 0.0

    # -- introspection / export ----------------------------------------
    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def timers(self) -> Dict[str, ValueHistogram]:
        return dict(self._timers)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": {k: c.to_dict() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.to_dict() for k, g in sorted(self._gauges.items())},
            "timers": {k: t.to_dict() for k, t in sorted(self._timers.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def timer_rows(self) -> Iterable[list]:
        """``[name, count, total_s, mean_ms, p95_ms]`` rows for table output."""
        for name in sorted(self._timers):
            t = self._timers[name]
            yield [
                name,
                str(t.count),
                f"{t.total:.4f}",
                f"{1e3 * t.mean:.3f}",
                f"{1e3 * t.percentile(95):.3f}",
            ]


_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry (returns the previous one)."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, registry
    return old


# -- module-level hot-site helpers (default registry) ------------------
def inc(name: str, n: float = 1.0) -> None:
    """Increment a counter in the default registry (no-op when disabled)."""
    if not STATE.enabled:
        return
    _REGISTRY.counter(name).inc(n)


def set_gauge(name: str, value: float) -> None:
    if not STATE.enabled:
        return
    _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float, unit: str = "") -> None:
    if not STATE.enabled:
        return
    _REGISTRY.histogram(name, unit=unit).observe(value)


def timer(name: str) -> _TimerHandle:
    """Timer handle against the default registry::

        with timer("evaluator.monte_carlo"):
            ...
    """
    return _TimerHandle(_REGISTRY, name)
