"""Planner-as-a-service core: request parsing, cached planning, evaluation.

:class:`PlannerService` is the transport-free heart of the service — the
HTTP front end (:mod:`repro.service.server`) and in-process embedders both
talk to it with plain dicts:

Plan request::

    {"distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
     "cost_model":  {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},   # optional
     "strategy":    {"name": "mean_by_mean", "knobs": {}},        # or "name"
     "coverage":    0.999,                                        # optional
     "n_samples":   5000, "seed": 0}                              # optional

The response carries the content-hash ``key``, a ``cached`` flag, the
materialized reservation list and Monte-Carlo statistics.  Identical
requests hit the plan cache and are answered without re-running the
strategy (DP / brute-force scan) — the ``plancache.hits`` counter is the
observable proof.  A plan is a function of its key alone: a brute-force
request whose knobs carry no ``seed`` is seeded from the key, so every
process computes the same plan for it.

Evaluate requests reuse the cached plan artifact: the stored reservation
list is costed against a fresh Monte-Carlo sample set (optionally through
the parallel pool).  Samples beyond the plan's coverage horizon are served
by a doubling tail extension — by construction less than ``1 - coverage``
of the probability mass.

**Graceful degradation** (see ``docs/RESILIENCE.md``): every Monte-Carlo
evaluation runs through one fallback ladder — parallel MC on the configured
backend, then serial MC with fewer samples, then the Eq. 3 quadrature,
then the Theorem 1 series — stepping down when the backend's circuit
breaker is open, a rung fails, or the computation's deadline has expired
(a running rung is never interrupted).  Every
response is stamped with ``degraded`` / ``evaluator`` / ``attempts`` so
callers (and the chaos CI job) can tell a full-fidelity answer from a
bounded-degraded one.
"""

from __future__ import annotations

import numbers
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.expectation import expected_cost_direct, expected_cost_series
from repro.core.sequence import ReservationSequence
from repro.distributions.registry import DISTRIBUTION_FACTORIES, make_distribution
from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.degradation import LadderReport, run_ladder
from repro.resilience.policies import Deadline
from repro.service.keys import plan_key, stable_key_hash
from repro.service.plancache import PlanCache
from repro.service.pool import ExecutionBackend, SerialBackend
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.strategies.brute_force import BruteForce
from repro.strategies.registry import PAPER_STRATEGY_ORDER, make_strategy

__all__ = [
    "ServiceError",
    "ResilienceOptions",
    "PlanCacheLike",
    "PlannerService",
    "PAYLOAD_VERSION",
]


class PlanCacheLike(Protocol):
    """What the planner needs from a cache tier.

    Satisfied by the in-process :class:`~repro.service.plancache.PlanCache`,
    by its journaled subclass :class:`~repro.service.shard.ShardStore`
    (``repro-serve --shard-dir``), and by the sharded facade
    (:class:`~repro.service.router.ShardedPlanCache`).  The sharded tier
    additionally offers ``get_or_compute_routed`` — detected dynamically so
    responses can be stamped with the shard route without this module
    importing the router.
    """

    maxsize: int
    ttl: Optional[float]

    def get_or_compute(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool]: ...

    def stats(self) -> Dict[str, object]: ...

PAYLOAD_VERSION = 1

DEFAULT_COVERAGE = 0.999
DEFAULT_N_SAMPLES = 5000
MAX_N_SAMPLES = 2_000_000

#: The degraded serial MC rung uses ``max(min, fraction * n_samples)``
#: samples (never more than the request asked for).
DEGRADED_FRACTION = 0.25
DEGRADED_MIN_SAMPLES = 500


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs for the planner's degradation ladder and backend breaker.

    The defaults keep the no-failure path bit-identical to a bare
    :func:`~repro.simulation.monte_carlo.monte_carlo_expected_cost` call:
    no deadline, a generous per-chunk timeout that only matters when a
    chunk hangs, and retries that only run after a failure.
    """

    #: Wall-clock budget per plan or evaluation computation, checked
    #: between ladder rungs; ``None`` = unbounded.
    request_deadline_s: Optional[float] = None
    #: Per-attempt timeout for one parallel MC chunk (ignored by the
    #: serial backend, which cannot be interrupted).
    mc_task_timeout_s: Optional[float] = 10.0
    #: Resubmissions per failed/hung MC chunk before the rung fails.
    mc_task_retries: int = 2
    #: Consecutive rung-1 failures before the breaker opens.
    breaker_failure_threshold: int = 3
    #: Seconds the breaker stays open before half-opening a probe.
    breaker_recovery_s: float = 5.0


class ServiceError(ValueError):
    """Invalid request; ``status`` is the HTTP code the front end returns."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _plain(obj):
    """Numpy-free copy of a params/stats structure for JSON payloads."""
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _require_mapping(request, field: str, default=None) -> dict:
    value = request.get(field, default)
    if value is None:
        raise ServiceError(f"request is missing {field!r}")
    if not isinstance(value, Mapping):
        raise ServiceError(f"{field!r} must be an object, got {type(value).__name__}")
    return dict(value)


def _parse_distribution(request):
    spec = _require_mapping(request, "distribution")
    law = spec.get("law") or spec.get("name")
    if not law:
        raise ServiceError("distribution needs a 'law' (or 'name') field")
    if law not in DISTRIBUTION_FACTORIES:
        raise ServiceError(
            f"unknown distribution {law!r}; known: {sorted(DISTRIBUTION_FACTORIES)}"
        )
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ServiceError("distribution 'params' must be an object")
    try:
        return make_distribution(str(law), **{str(k): v for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad distribution parameters: {exc}") from None


def _parse_cost_model(request) -> CostModel:
    spec = _require_mapping(request, "cost_model", default={})
    try:
        return CostModel(
            alpha=float(spec.get("alpha", 1.0)),
            beta=float(spec.get("beta", 0.0)),
            gamma=float(spec.get("gamma", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad cost model: {exc}") from None


def _parse_strategy(request) -> Tuple[str, dict]:
    spec = request.get("strategy", "mean_by_mean")
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, Mapping):
        raise ServiceError("'strategy' must be a name or an object")
    name = str(spec.get("name", "")).lower().replace("-", "_")
    if name not in PAPER_STRATEGY_ORDER:
        raise ServiceError(
            f"unknown strategy {name!r}; known: {PAPER_STRATEGY_ORDER}"
        )
    knobs = spec.get("knobs", {})
    if not isinstance(knobs, Mapping):
        raise ServiceError("strategy 'knobs' must be an object")
    return name, {str(k): v for k, v in knobs.items()}


def _parse_coverage(request) -> float:
    try:
        coverage = float(request.get("coverage", DEFAULT_COVERAGE))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad coverage: {exc}") from None
    if not 0.0 < coverage < 1.0:
        raise ServiceError("'coverage' must lie strictly between 0 and 1")
    return coverage


def _parse_integer(request, field: str, default) -> int:
    """``request[field]`` as an int; a bool or a fractional number is refused
    rather than truncated, so a caller never gets another value than it sent."""
    value = request.get(field, default)
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)  # numpy integers from in-process callers
    raise ServiceError(f"{field!r} must be an integer, got {value!r}")


def _parse_evaluation(request, default_n, default_seed) -> Tuple[int, int]:
    n_samples = _parse_integer(request, "n_samples", default_n)
    seed = _parse_integer(request, "seed", default_seed)
    if not 0 < n_samples <= MAX_N_SAMPLES:
        raise ServiceError(f"'n_samples' must be in (0, {MAX_N_SAMPLES}]")
    if seed < 0:
        raise ServiceError("'seed' must be >= 0")
    return n_samples, seed


def _doubling_tail(values: np.ndarray) -> float:
    return float(values[-1]) * 2.0


def _stats_from_mc(mc, seed: int) -> dict:
    """Statistics block for a Monte-Carlo rung (full or reduced)."""
    return {
        "expected_cost": mc.mean_cost,
        "std_error": mc.std_error,
        "n_samples": mc.n_samples,
        "seed": seed,
        "max_reservations_hit": mc.max_reservations_hit,
    }


def _stats_from_scalar(value: float) -> dict:
    """Statistics block for an analytic rung (quadrature / series).

    The sampling-specific fields are ``None`` — the analytic evaluators
    are exact up to their tail tolerance, so there is no standard error,
    sample count, or seed to report.
    """
    return {
        "expected_cost": float(value),
        "std_error": None,
        "n_samples": None,
        "seed": None,
        "max_reservations_hit": None,
    }


class PlannerService:
    """Long-lived planning service: cache + execution backend + planner."""

    def __init__(
        self,
        cache: Optional[PlanCacheLike] = None,
        backend: Optional[ExecutionBackend] = None,
        n_samples: int = DEFAULT_N_SAMPLES,
        seed: int = 0,
        resilience: Optional[ResilienceOptions] = None,
    ):
        self.cache = cache if cache is not None else PlanCache()
        self.backend = backend if backend is not None else SerialBackend()
        # The defaults answer every request that carries no value of its
        # own, so they pass the same check a request's values do.
        self.default_n_samples, self.default_seed = _parse_evaluation(
            {}, n_samples, seed
        )
        self.resilience = resilience if resilience is not None else ResilienceOptions()
        self.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            recovery_time=self.resilience.breaker_recovery_s,
            name="mc-backend",
        )
        # Wall-clock epoch for display; monotonic origin for uptime_s —
        # NTP steps / DST jumps must never produce negative or inflated
        # uptime in health probes.
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()

    def uptime_s(self) -> float:
        """Seconds since service construction, immune to wall-clock steps."""
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _request_deadline(self) -> Optional[Deadline]:
        """One deadline per computation: a plan, or one evaluation run."""
        seconds = self.resilience.request_deadline_s
        return None if seconds is None else Deadline(seconds)

    def _mc_stats(
        self,
        sequence: ReservationSequence,
        distribution,
        cost_model: CostModel,
        n_samples: int,
        seed: int,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[dict, LadderReport]:
        """Expected-cost statistics through the degradation ladder.

        Rung 1 is a bare :func:`monte_carlo_expected_cost` call on the
        service's backend, so with no faults and a serial backend the
        numbers are bit-identical to calling the kernel directly.  The later
        rungs trade fidelity for availability: reduced serial MC, then the
        Eq. 3 quadrature, then the Theorem 1 series (always attempted, even
        past the deadline, because a late answer beats none).
        """
        opts = self.resilience

        def full_mc() -> dict:
            mc = monte_carlo_expected_cost(
                sequence,
                distribution,
                cost_model,
                n_samples=n_samples,
                seed=seed,
                backend=self.backend,
                task_timeout=opts.mc_task_timeout_s,
                task_retries=opts.mc_task_retries,
            )
            return _stats_from_mc(mc, seed)

        def serial_reduced() -> dict:
            n_reduced = min(
                n_samples,
                max(DEGRADED_MIN_SAMPLES, int(n_samples * DEGRADED_FRACTION)),
            )
            mc = monte_carlo_expected_cost(
                sequence, distribution, cost_model,
                n_samples=n_reduced, seed=seed,
            )
            return _stats_from_mc(mc, seed)

        def quadrature() -> dict:
            return _stats_from_scalar(
                expected_cost_direct(sequence, distribution, cost_model)
            )

        def series() -> dict:
            return _stats_from_scalar(
                expected_cost_series(sequence, distribution, cost_model)
            )

        return run_ladder(
            [
                ("mc", lambda: self.breaker.call(full_mc)),
                ("mc_serial_reduced", serial_reduced),
                ("quadrature", quadrature),
                ("series", series),
            ],
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, request: Mapping) -> Dict[str, object]:
        """Compute (or fetch) the plan for ``request``; see module docstring."""
        metrics.inc(names.SERVICE_PLAN_REQUESTS)
        distribution = _parse_distribution(request)
        cost_model = _parse_cost_model(request)
        strategy_name, knobs = _parse_strategy(request)
        coverage = _parse_coverage(request)
        n_samples, seed = _parse_evaluation(
            request, self.default_n_samples, self.default_seed
        )
        # The key deliberately excludes n_samples/seed: the plan artifact is a
        # pure function of (law, costs, strategy, coverage); the statistics
        # stored alongside are advisory (use /evaluate for fresh numbers).
        key = plan_key(
            distribution,
            cost_model,
            strategy_name,
            knobs=knobs,
            coverage=coverage,
        )

        deadline = self._request_deadline()

        def compute() -> dict:
            return self._compute_plan(
                key, distribution, cost_model, strategy_name, knobs, coverage,
                n_samples, seed, deadline,
            )

        # The sharded tier returns the route alongside the payload; stamp
        # it (like the ladder's degraded/evaluator stamp) so callers and
        # the chaos drill can tell a primary answer from a failed-over one.
        routed = getattr(self.cache, "get_or_compute_routed", None)
        with metrics.timer(names.SERVICE_PLAN):
            if routed is not None:
                payload, cached, route = routed(key, compute)
            else:
                payload, cached = self.cache.get_or_compute(key, compute)
                route = None
        response = dict(payload)
        response["cached"] = cached
        if route is not None:
            response["shard"] = route
        return response

    def _compute_plan(
        self, key, distribution, cost_model, strategy_name, knobs, coverage,
        n_samples, seed, deadline=None,
    ) -> dict:
        try:
            strategy = make_strategy(strategy_name, **knobs)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad strategy knobs: {exc}") from None
        if isinstance(strategy, BruteForce) and strategy.seed is None:
            # Unseeded, the scan draws its samples from OS entropy, so one
            # key would get a different plan in every process.  Seed it
            # from the key, never from the request's evaluation seed, which
            # the key leaves out.
            strategy.seed = stable_key_hash(key)
        with metrics.timer(names.SERVICE_PLAN_COMPUTE):
            sequence = strategy.sequence(distribution, cost_model)
            sequence.ensure_covers(float(distribution.quantile(coverage)))
            reservations = [float(v) for v in sequence.values]
            stats, report = self._mc_stats(
                sequence, distribution, cost_model, n_samples, seed, deadline
            )
        omniscient = cost_model.omniscient_expected_cost(distribution)
        stats = {
            "expected_cost": stats["expected_cost"],
            "std_error": stats["std_error"],
            "omniscient_cost": omniscient,
            "normalized_cost": stats["expected_cost"] / omniscient,
            "n_samples": stats["n_samples"],
            "seed": stats["seed"],
            "max_reservations_hit": stats["max_reservations_hit"],
        }
        return {
            "version": PAYLOAD_VERSION,
            "key": key,
            "plan": {
                "reservations": reservations,
                "strategy": strategy_name,
                "knobs": _plain(knobs),
                "coverage": coverage,
                "distribution": {
                    "law": distribution.name,
                    "params": _plain(distribution.params()),
                },
                "cost_model": {
                    "alpha": cost_model.alpha,
                    "beta": cost_model.beta,
                    "gamma": cost_model.gamma,
                },
            },
            "statistics": stats,
            "computed_at": time.time(),
            # Resilience stamp: how this payload's statistics were obtained
            # (cache hits return the stamp of the original computation).
            **report.to_fields(),
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: Mapping) -> Dict[str, object]:
        """Monte-Carlo re-evaluation of a plan's reservation artifact.

        The plan is resolved through the cache (planning it on a miss), so a
        warm evaluate never re-runs the strategy; only the sampling runs,
        through the service's execution backend.
        """
        metrics.inc(names.SERVICE_EVALUATE_REQUESTS)
        plan_response = self.plan(request)
        distribution = _parse_distribution(request)
        cost_model = _parse_cost_model(request)
        n_samples, seed = _parse_evaluation(
            request, self.default_n_samples, self.default_seed
        )
        values = np.asarray(plan_response["plan"]["reservations"], dtype=float)
        sequence = ReservationSequence(
            values, extend=_doubling_tail, name=plan_response["plan"]["strategy"]
        )
        deadline = self._request_deadline()
        with metrics.timer(names.SERVICE_EVALUATE):
            stats, report = self._mc_stats(
                sequence, distribution, cost_model, n_samples, seed, deadline
            )
        if stats["std_error"] is not None:
            half = 1.96 * stats["std_error"]
            ci95 = [stats["expected_cost"] - half, stats["expected_cost"] + half]
        else:
            ci95 = None
        omniscient = cost_model.omniscient_expected_cost(distribution)
        return {
            "version": PAYLOAD_VERSION,
            "key": plan_response["key"],
            "cached": plan_response["cached"],
            "evaluation": {
                "expected_cost": stats["expected_cost"],
                "std_error": stats["std_error"],
                "ci95": ci95,
                "omniscient_cost": omniscient,
                "normalized_cost": stats["expected_cost"] / omniscient,
                "n_samples": stats["n_samples"],
                "seed": stats["seed"],
                "max_reservations_hit": stats["max_reservations_hit"],
            },
            # Stamp for *this* evaluation run (the plan payload carries its
            # own stamp from when it was computed).
            **report.to_fields(),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        fault_plan = faults.get_plan()
        return {
            "status": "ok",
            "uptime_s": self.uptime_s(),
            "backend": self.backend.kind,
            "cache": self.cache.stats(),
            "resilience": {
                "breaker": self.breaker.stats(),
                "faults": fault_plan.stats() if fault_plan is not None else None,
            },
        }

    def metrics_payload(self) -> Dict[str, object]:
        return {
            "metrics": metrics.get_registry().to_dict(),
            "cache": self.cache.stats(),
            "breaker": self.breaker.stats(),
            "uptime_s": self.uptime_s(),
        }
