"""Online execution of a reservation strategy against a real job.

The library's planning side answers "which sequence should I use?"; this
module is the *runtime* a user drives while actually submitting
reservations:

    session = ReservationSession(sequence, cost_model)
    while True:
        request = session.next_request()
        outcome = platform.run(job, limit=request)   # user's code
        if outcome.finished:
            session.report_success(outcome.runtime)
            break
        session.report_failure()
    print(session.total_cost, session.attempts)

Every attempt is recorded (request, cost, outcome) for auditing, and
:func:`execute` closes the loop in simulation by playing a known execution
time against the session — which is how the integration tests verify that
the online accounting reproduces ``C(k, t)`` exactly.
"""

from __future__ import annotations

import enum
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.observability import metrics, tracing

__all__ = ["AttemptOutcome", "Attempt", "ReservationSession", "execute"]


class AttemptOutcome(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class Attempt:
    """One submitted reservation and its result."""

    index: int
    requested: float
    outcome: AttemptOutcome
    cost: float
    runtime: Optional[float] = None  # known only on success


class SessionError(RuntimeError):
    """Protocol violation (e.g. reporting twice, or after completion)."""


class ReservationSession:
    """Drives one job through a reservation sequence, tracking cost."""

    def __init__(self, sequence: ReservationSequence, cost_model: CostModel):
        self.sequence = sequence
        self.cost_model = cost_model
        self.attempts: List[Attempt] = []
        self._pending: Optional[float] = None
        self._pending_since: Optional[float] = None
        self._done = False

    # ------------------------------------------------------------------
    @property
    def is_done(self) -> bool:
        return self._done

    @property
    def total_cost(self) -> float:
        return sum(a.cost for a in self.attempts)

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def last_failed_length(self) -> float:
        """Largest reservation known to be too short (0 before any failure).

        This is the session's information state: the job's execution time is
        known to exceed this value.
        """
        failures = [a.requested for a in self.attempts
                    if a.outcome is AttemptOutcome.FAILURE]
        return max(failures, default=0.0)

    @property
    def trace(self) -> List[Dict[str, object]]:
        """Attempt log as plain dicts (serialization-friendly).

        Each entry carries ``index``, ``requested``, ``outcome`` (the string
        value), ``cost``, and the running ``cumulative_cost`` — everything a
        caller or a JSON export needs without reaching into
        :class:`Attempt` internals.
        """
        out: List[Dict[str, object]] = []
        cumulative = 0.0
        for a in self.attempts:
            cumulative += a.cost
            out.append(
                {
                    "index": a.index,
                    "requested": a.requested,
                    "outcome": a.outcome.value,
                    "cost": a.cost,
                    "cumulative_cost": cumulative,
                }
            )
        return out

    # ------------------------------------------------------------------
    def next_request(self) -> float:
        """The reservation length to submit next."""
        if self._done:
            raise SessionError("job already completed")
        if self._pending is not None:
            raise SessionError(
                f"request of {self._pending} already outstanding; report its "
                "outcome first"
            )
        idx = len(self.attempts)
        while len(self.sequence) <= idx:
            self.sequence.extend_once()
        self._pending = float(self.sequence[idx])
        self._pending_since = _time.perf_counter()
        metrics.inc("session.requests")
        return self._pending

    def report_success(self, runtime: float) -> Attempt:
        """The job finished within the outstanding reservation."""
        req = self._require_pending()
        runtime = float(runtime)
        if runtime < 0:
            raise SessionError(f"negative runtime {runtime}")
        if runtime > req:
            raise SessionError(
                f"reported runtime {runtime} exceeds the reservation {req}; "
                "that attempt cannot have succeeded"
            )
        attempt = Attempt(
            index=len(self.attempts),
            requested=req,
            outcome=AttemptOutcome.SUCCESS,
            cost=float(self.cost_model.reservation_cost(req, runtime)),
            runtime=runtime,
        )
        self.attempts.append(attempt)
        self._pending = None
        self._done = True
        self._record_attempt(attempt)
        return attempt

    def report_failure(self) -> Attempt:
        """The outstanding reservation elapsed without the job finishing."""
        req = self._require_pending()
        attempt = Attempt(
            index=len(self.attempts),
            requested=req,
            outcome=AttemptOutcome.FAILURE,
            cost=float(self.cost_model.failed_reservation_cost(req)),
        )
        self.attempts.append(attempt)
        self._pending = None
        self._record_attempt(attempt)
        return attempt

    def _record_attempt(self, attempt: Attempt) -> None:
        """Emit one ``session.attempt`` span + counters for a closed attempt.

        The span's duration is the wall time between ``next_request`` and the
        report — the window in which the caller actually ran the job.
        """
        metrics.inc("session.attempts")
        metrics.inc(
            "session.successes"
            if attempt.outcome is AttemptOutcome.SUCCESS
            else "session.failures"
        )
        since, self._pending_since = self._pending_since, None
        tracing.record_event(
            "session.attempt",
            duration=(_time.perf_counter() - since) if since is not None else 0.0,
            index=attempt.index,
            requested=attempt.requested,
            outcome=attempt.outcome.value,
            cost=attempt.cost,
            cumulative_cost=self.total_cost,
        )

    def _require_pending(self) -> float:
        if self._pending is None:
            raise SessionError("no outstanding request; call next_request first")
        return self._pending


def execute(
    session: ReservationSession, execution_time: float, max_attempts: int = 10_000
) -> float:
    """Play a known ``execution_time`` against ``session`` to completion;
    returns the total cost (== ``C(k, t)`` of Eq. 2)."""
    t = float(execution_time)
    if t < 0:
        raise ValueError(f"execution time must be nonnegative, got {t}")
    for _ in range(max_attempts):
        request = session.next_request()
        if t <= request:
            session.report_success(t)
            return session.total_cost
        session.report_failure()
    raise RuntimeError(
        f"job of duration {t} not completed within {max_attempts} attempts"
    )
