"""repro — Reservation Strategies for Stochastic Jobs (IPDPS 2019).

A complete reproduction of Aupy, Gainaru, Honoré, Raghavan, Robert & Sun,
"Reservation Strategies for Stochastic Jobs": the affine reservation cost
model, the optimal-sequence characterization (Theorems 1-4, Propositions
1-2), the BRUTE-FORCE and discretization+DP heuristics, the standard-measure
heuristics, both platform models (cloud RESERVATIONONLY and NEUROHPC), and
the full experiment harness regenerating Tables 2-4 and Figures 1-4.

Quickstart::

    from repro import CostModel, LogNormal, BruteForce, evaluate_strategy

    dist = LogNormal(mu=3.0, sigma=0.5)
    cost = CostModel.reservation_only()
    strategy = BruteForce(m_grid=500, n_samples=1000, seed=42)
    record = evaluate_strategy(strategy, dist, cost, seed=7)
    print(record.normalized_cost)   # ~1.85 (Table 2, Lognormal row)

The public names are resolved lazily (PEP 562): ``import repro`` loads
nothing, and ``from repro import X`` imports only the module defining
``X``.  A process that needs one corner of the package, such as a
plan-cache shard worker (:mod:`repro.service.shard`), therefore never
loads scipy or the strategy stack.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

__version__ = "1.0.0"

# Defining module -> the public names ``repro`` re-exports from it.
_EXPORTS_BY_MODULE: Dict[str, Tuple[str, ...]] = {
    "repro.core.cost": ("CostModel",),
    "repro.core.sequence": ("ReservationSequence", "SequenceError"),
    "repro.core.expectation": (
        "expected_cost_series",
        "expected_cost_direct",
        "normalized_cost",
    ),
    "repro.core.bounds": ("compute_bounds", "TheoremTwoBounds", "t1_search_interval"),
    "repro.core.recurrence": (
        "RecurrenceError",
        "next_reservation",
        "generate_optimal_sequence",
        "optimal_sequence_from_t1",
    ),
    "repro.core.optimal": (
        "uniform_optimal_sequence",
        "exponential_optimal_sequence",
        "exponential_s1",
        "PAPER_EXPONENTIAL_S1",
    ),
    "repro.core.convex": (
        "AffineReservationCost",
        "QuadraticReservationCost",
        "generate_convex_sequence",
        "expected_cost_convex",
    ),
    "repro.distributions.base": ("Distribution",),
    "repro.distributions.exponential": ("Exponential",),
    "repro.distributions.weibull": ("Weibull",),
    "repro.distributions.gamma": ("Gamma",),
    "repro.distributions.lognormal": ("LogNormal", "lognormal_from_moments"),
    "repro.distributions.truncated_normal": ("TruncatedNormal",),
    "repro.distributions.pareto": ("Pareto",),
    "repro.distributions.uniform": ("Uniform",),
    "repro.distributions.beta": ("Beta",),
    "repro.distributions.bounded_pareto": ("BoundedPareto",),
    "repro.distributions.discrete": ("DiscreteDistribution",),
    "repro.distributions.fitting": ("fit_lognormal",),
    "repro.distributions.registry": (
        "make_distribution",
        "paper_distribution",
        "paper_distributions",
    ),
    "repro.discretization.schemes": ("discretize", "equal_time", "equal_probability"),
    "repro.discretization.truncation": ("truncation_bound",),
    "repro.strategies.base": ("Strategy",),
    "repro.strategies.brute_force": ("BruteForce",),
    "repro.strategies.mean_by_mean": ("MeanByMean",),
    "repro.strategies.mean_stdev": ("MeanStdev",),
    "repro.strategies.mean_doubling": ("MeanDoubling",),
    "repro.strategies.median_by_median": ("MedianByMedian",),
    "repro.strategies.discretized_dp": ("EqualTimeDP", "EqualProbabilityDP"),
    "repro.strategies.omniscient": ("Omniscient",),
    "repro.strategies.dynamic_programming": ("solve_discrete_dp",),
    "repro.strategies.registry": ("make_strategy", "paper_strategies"),
    "repro.simulation.evaluator": ("evaluate_strategy", "evaluate_sequence"),
    "repro.simulation.monte_carlo": ("monte_carlo_expected_cost",),
    "repro.simulation.results": ("EvaluationRecord",),
    "repro.platforms.reservation_only": ("ReservationOnlyPlatform",),
    "repro.platforms.neurohpc": ("NeuroHPCPlatform",),
    "repro.platforms.waittime": ("WaitTimeModel",),
    "repro.platforms.traces": ("generate_trace",),
    "repro.verification.report": ("ConformanceReport",),
    "repro.verification.sweep": ("SweepConfig", "run_oracle_sweep"),
}

_EXPORTS: Dict[str, str] = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
