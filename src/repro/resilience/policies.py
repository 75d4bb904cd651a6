"""Retry and deadline primitives.

A reservation sequence *is* a backoff schedule against an unknown runtime
(the paper's Eq. 11 fixed point); these classes apply the same idea to the
serving stack's own failures:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *full jitter* (each sleep is drawn uniformly from ``[0, cap]``, the
  AWS-style variant that decorrelates synchronized retry storms), the
  backoff of :class:`repro.service.client.ServiceClient`.  Jitter
  randomness comes from :mod:`repro.utils.rng`, so drills are seedable and
  a policy that never retries never draws — the no-failure path stays
  bit-identical.
* :class:`Deadline` — a wall-clock budget for one computation; the
  degradation ladder skips its remaining non-final rungs once it expires.

All bookkeeping is thread-safe; metrics land under ``resilience.*``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.observability import metrics
from repro.observability import names
from repro.utils.rng import SeedLike, as_generator

__all__ = ["Deadline", "RetryPolicy"]


class Deadline:
    """An absolute point in time a computation must not outlive.

    Immutable after construction; cheap to pass through call trees.  A
    ``None`` deadline everywhere means "no budget".
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds < 0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        self._clock = clock
        self.expires_at = clock() + seconds

    def expired(self) -> bool:
        return self._clock() >= self.expires_at


class RetryPolicy:
    """Exponential backoff with full jitter and bounded attempts.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means at most
    two retries.  The backoff cap doubles per retry up to ``max_delay``;
    ``base_delay=0`` never sleeps and never draws.  The caller decides
    which failures are retryable.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        seed: SeedLike = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self._sleep = sleep
        self._rng = as_generator(seed)
        self._lock = threading.Lock()

    def should_retry(self, attempt: int) -> bool:
        """May attempt number ``attempt`` (1-based, just failed) be retried?"""
        if attempt >= self.max_attempts:
            metrics.inc(names.RESILIENCE_RETRY_EXHAUSTED)
            return False
        return True

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        cap = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 1))
        if cap <= 0.0:
            return 0.0
        with self._lock:  # numpy Generators are not thread-safe
            return float(self._rng.uniform(0.0, cap))

    def backoff(self, attempt: int) -> None:
        """Sleep the jittered delay for ``attempt``."""
        metrics.inc(names.RESILIENCE_RETRIES)
        pause = self.delay(attempt)
        if pause > 0.0:
            self._sleep(pause)

    def sleep_for(self, seconds: float) -> None:
        """Sleep an externally dictated retry delay (e.g. ``Retry-After``).

        Counted as a retry pause like :meth:`backoff`, but the duration
        comes from the server instead of the jitter schedule.
        """
        metrics.inc(names.RESILIENCE_RETRIES)
        if seconds > 0.0:
            self._sleep(seconds)
