"""High-level evaluation of strategies (Section 5.1 methodology).

Couples a strategy's sequence to one of the two expected-cost estimators
(Monte-Carlo, the paper's choice; or the Theorem 1 series, exact up to tail
truncation) and normalizes by the omniscient scheduler's cost
``E^o = (alpha+beta) E[X] + gamma``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.cost import CostModel
from repro.core.expectation import expected_cost_series
from repro.core.sequence import ReservationSequence
from repro.observability import metrics, tracing
from repro.simulation.monte_carlo import costs_for_times, monte_carlo_expected_cost
from repro.simulation.results import EvaluationRecord
from repro.utils.rng import SeedLike

__all__ = ["evaluate_sequence", "evaluate_strategy", "evaluate_on_samples"]

Method = Literal["monte_carlo", "series"]


def evaluate_on_samples(
    sequence: ReservationSequence,
    distribution,
    cost_model: CostModel,
    samples: np.ndarray,
    strategy_name: str | None = None,
) -> EvaluationRecord:
    """Evaluate a sequence on a *given* set of execution times.

    Sharing one sample set across all strategies of a comparison (common
    random numbers) removes sampling noise from their cost *ratios* — the
    right way to produce the bracketed columns of Table 2.
    """
    samples = np.asarray(samples, dtype=float)
    omniscient = cost_model.omniscient_expected_cost(distribution)
    metrics.inc("evaluator.evaluations")
    with tracing.span(
        "evaluator.on_samples",
        strategy=strategy_name or sequence.name or "<sequence>",
        n_samples=int(samples.size),
    ), metrics.timer("evaluator.monte_carlo"):
        costs = costs_for_times(sequence, samples, cost_model)
    expected = float(costs.mean())
    n = int(samples.size)
    std_err = float(costs.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EvaluationRecord(
        strategy=strategy_name or sequence.name or "<sequence>",
        distribution=getattr(distribution, "name", type(distribution).__name__),
        expected_cost=expected,
        omniscient_cost=omniscient,
        normalized_cost=expected / omniscient,
        method="monte_carlo",
        n_samples=n,
        std_error=std_err,
        first_reservation=sequence.first,
        sequence_length=len(sequence),
    )


def evaluate_sequence(
    sequence: ReservationSequence,
    distribution,
    cost_model: CostModel,
    method: Method = "monte_carlo",
    n_samples: int = 1000,
    seed: SeedLike = None,
    strategy_name: str | None = None,
) -> EvaluationRecord:
    """Evaluate one already-built sequence and return a record."""
    omniscient = cost_model.omniscient_expected_cost(distribution)
    metrics.inc("evaluator.evaluations")
    if method == "monte_carlo":
        with tracing.span(
            "evaluator.monte_carlo",
            strategy=strategy_name or sequence.name or "<sequence>",
            n_samples=n_samples,
        ), metrics.timer("evaluator.monte_carlo"):
            mc = monte_carlo_expected_cost(
                sequence, distribution, cost_model, n_samples=n_samples, seed=seed
            )
        expected, std_err, n = mc.mean_cost, mc.std_error, mc.n_samples
    elif method == "series":
        with tracing.span(
            "evaluator.series",
            strategy=strategy_name or sequence.name or "<sequence>",
        ), metrics.timer("evaluator.series"):
            expected = expected_cost_series(sequence, distribution, cost_model)
        std_err, n = None, None
    else:
        raise ValueError(f"unknown evaluation method {method!r}")
    return EvaluationRecord(
        strategy=strategy_name or sequence.name or "<sequence>",
        distribution=getattr(distribution, "name", type(distribution).__name__),
        expected_cost=expected,
        omniscient_cost=omniscient,
        normalized_cost=expected / omniscient,
        method=method,
        n_samples=n,
        std_error=std_err,
        first_reservation=sequence.first,
        sequence_length=len(sequence),
    )


def evaluate_strategy(
    strategy,
    distribution,
    cost_model: CostModel,
    method: Method = "monte_carlo",
    n_samples: int = 1000,
    seed: SeedLike = None,
) -> EvaluationRecord:
    """Build the strategy's sequence for ``distribution`` and evaluate it."""
    sequence = strategy.sequence(distribution, cost_model)
    return evaluate_sequence(
        sequence,
        distribution,
        cost_model,
        method=method,
        n_samples=n_samples,
        seed=seed,
        strategy_name=strategy.name,
    )
