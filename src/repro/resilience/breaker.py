"""Circuit breaker: closed / open / half-open, with metrics.

Palopoli et al.'s analysis of reservation-based soft real-time systems
argues for *bounded* degradation over hard failure; the breaker is the
switch that triggers it.  Guarding an unreliable dependency (here: the
parallel execution backend) with a breaker turns a failure storm into one
cheap rejection per request, which the degradation ladder then converts
into a cheaper evaluator instead of an error.

State machine:

* **closed** — calls flow; consecutive failures are counted, and reaching
  ``failure_threshold`` opens the breaker;
* **open** — calls are rejected without running until ``recovery_time``
  seconds pass, then the next caller transitions it to half-open;
* **half-open** — one probe call runs; a probe success closes the
  breaker, a probe failure re-opens it (restarting the recovery clock).

Transitions and rejections are counted under ``resilience.breaker.*`` and
the current state is exported as a gauge (0 = closed, 1 = half-open,
2 = open) so ``/metrics`` shows a drill's open → half-open → closed arc.

The clock is injectable for tests; every piece of mutable state is
guarded by ``self._lock`` (lint rule RS202 enforces this — the lock is an
``RLock`` so the lazy open → half-open transition can take it from inside
methods that already hold it).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.observability import metrics
from repro.observability import names

__all__ = ["CircuitOpen", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitOpen(RuntimeError):
    """The breaker rejected a call without running it."""

    def __init__(self, name: str, retry_in: float) -> None:
        super().__init__(
            f"circuit {name!r} is open (next probe in {retry_in:.2f}s)"
        )
        self.breaker_name = name
        self.retry_in = retry_in


class CircuitBreaker:
    """Thread-safe three-state circuit breaker."""

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_time: float = 5.0,
        name: str = "backend",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_time < 0:
            raise ValueError(f"recovery_time must be >= 0, got {recovery_time}")
        self.failure_threshold = int(failure_threshold)
        self.recovery_time = float(recovery_time)
        self.name = name
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        # Cumulative transition counts (also in metrics; kept here so
        # health payloads work with observability disabled).
        self._n_opened = 0
        self._n_half_opens = 0
        self._n_closes = 0
        self._n_rejections = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state (performing the lazy open → half-open transition)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        with self._lock:  # reentrant: callers may already hold it
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.recovery_time
            ):
                self._state = HALF_OPEN
                self._probe_inflight = False
                self._n_half_opens += 1
                metrics.inc(names.RESILIENCE_BREAKER_HALF_OPENS)
                metrics.set_gauge(
                    names.RESILIENCE_BREAKER_STATE, _STATE_GAUGE[HALF_OPEN]
                )

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  (Reserves a probe when half-open.)

        Every ``allow() == True`` must be balanced by exactly one
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            self._n_rejections += 1
            metrics.inc(names.RESILIENCE_BREAKER_REJECTIONS)
            return False

    def retry_in(self) -> float:
        """Seconds until the next probe could run (0 when not open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0, self.recovery_time - (self._clock() - self._opened_at)
            )

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._failures = 0
                self._probe_inflight = False
                self._n_closes += 1
                metrics.inc(names.RESILIENCE_BREAKER_CLOSES)
                metrics.set_gauge(
                    names.RESILIENCE_BREAKER_STATE, _STATE_GAUGE[CLOSED]
                )
            elif self._state == CLOSED:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_inflight = False
                self._n_opened += 1
                metrics.inc(names.RESILIENCE_BREAKER_OPENED)
                metrics.set_gauge(names.RESILIENCE_BREAKER_STATE, _STATE_GAUGE[OPEN])
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._state = OPEN
                    self._opened_at = self._clock()
                    self._n_opened += 1
                    metrics.inc(names.RESILIENCE_BREAKER_OPENED)
                    metrics.set_gauge(
                        names.RESILIENCE_BREAKER_STATE, _STATE_GAUGE[OPEN]
                    )

    # ------------------------------------------------------------------
    def call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` through the breaker (raising :class:`CircuitOpen`)."""
        if not self.allow():
            raise CircuitOpen(self.name, self.retry_in())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "recovery_time": self.recovery_time,
                "opened": self._n_opened,
                "half_opens": self._n_half_opens,
                "closes": self._n_closes,
                "rejections": self._n_rejections,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CircuitBreaker {self.name!r} state={self.state}>"
