"""Resilience layer: fault injection, retry/backoff, circuit breaking,
graceful degradation.

The serving stack (:mod:`repro.service`) assumes workers, journal I/O and
HTTP requests can all fail; this package supplies the machinery that keeps
it answering anyway:

* :mod:`repro.resilience.faults` — deterministic, seedable fault-injection
  harness (``REPRO_FAULTS`` JSON plan, ``faults.fire`` sites);
* :mod:`repro.resilience.policies` — :class:`RetryPolicy` (bounded
  attempts, exponential backoff with full jitter), :class:`Deadline`
  (wall-clock budget for one computation);
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`
  (closed/open/half-open with ``resilience.breaker.*`` metrics);
* :mod:`repro.resilience.degradation` — :func:`run_ladder`, the
  evaluator fallback chain used by the planner.

The shard workers are supervised by their own fleet
(:class:`repro.service.router.ShardFleet`).

See ``docs/RESILIENCE.md`` for the fault-plan format, the policy knobs,
and the planner's degradation ladder.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpen,
)
from repro.resilience.degradation import LadderExhausted, LadderReport, run_ladder
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fire,
    install,
    installed,
    uninstall,
)
from repro.resilience.policies import Deadline, RetryPolicy

__all__ = [
    "ENV_VAR",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "LadderExhausted",
    "LadderReport",
    "RetryPolicy",
    "fire",
    "install",
    "installed",
    "run_ladder",
    "uninstall",
]
