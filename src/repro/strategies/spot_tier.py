"""Tier-aware strategies: choose reservation lengths *and* the tier.

The paper's strategies decide how long to reserve; a real cloud tenant also
decides *where* to run: on-demand reservations (never interrupted, full
price — the paper's model) or spot capacity (discounted, interruptible).
These planners compare, for a given job-length law and
:class:`~repro.platforms.spot.SpotScenario`:

* ``reserve_only`` — a paper strategy's reservation sequence, priced by the
  Thm 1 series evaluator (the existing machinery, untouched);
* ``spot_restart`` — run on spot, restart from scratch on interruption;
* ``spot_checkpoint`` — run on spot, checkpointing at the Young/Daly-seeded
  optimal interval;
* ``spot_then_reserve`` — checkpoint through the first ``u = k tau`` hours
  of work on spot, then — only if the job is still running — hand the saved
  state to the reserved tier, which plans the paper's sequence on the
  *leftover-work* law ``X - u | X > u`` (:class:`ShiftedTail`).  Short jobs
  finish cheaply on spot and never pay on-demand prices; the rare long job
  stops burning inflated spot retry time.  The cap sweep picks the best
  ``k``.

All spot pricing is certainty-equivalent: the scenario's stationary mean
price and the hazard evaluated there (the closed-form/quadrature path).
Monte-Carlo evaluation of a chosen plan under the full stochastic price
process is the evaluator's job, not the planner's.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.cost import CostModel
from repro.observability import metrics

__all__ = [
    "TierPlan",
    "TierStrategy",
    "ReserveOnly",
    "SpotOnly",
    "SpotThenReserve",
    "choose_tier",
    "tier_lineup",
]


@dataclass(frozen=True)
class TierPlan:
    """Outcome of a tier decision for one (law, cost model, scenario)."""

    strategy: str
    tier: str  # "reserved" | "spot" | "mixed"
    expected_cost: float
    spot_work_cap: float  # 0 = pure reserved, inf = pure spot
    checkpoint_interval: Optional[float]
    reserved_preview: Tuple[float, ...]  # first reserved lengths, if any
    detail: str = ""


class TierStrategy(abc.ABC):
    """A planner producing a :class:`TierPlan`."""

    name = "tier"

    @abc.abstractmethod
    def plan(self, distribution, cost_model: CostModel, scenario) -> TierPlan:
        """Decide tier and parameters for ``distribution`` under
        ``scenario`` (a :class:`~repro.platforms.spot.SpotScenario`)."""


def _spot_interval(scenario, rate: float, distribution) -> float:
    """Checkpoint interval for the certainty-equivalent rate: the numeric
    optimum when well-posed, otherwise a median-based fallback (zero
    overhead drives the optimizer to 0; zero rate makes it irrelevant)."""
    overhead = scenario.checkpoint_overhead
    if rate > 0 and overhead > 0:
        from repro.platforms.spot.evaluator import optimal_checkpoint_interval

        return optimal_checkpoint_interval(rate, overhead)
    return max(float(distribution.quantile(0.5)) / 8.0, 1e-6)


def _reserved_cost(strategy, distribution, cost_model: CostModel) -> float:
    from repro.simulation.evaluator import evaluate_strategy

    record = evaluate_strategy(
        strategy, distribution, cost_model, method="series"
    )
    return float(record.expected_cost)


def _sequence_preview(strategy, distribution, cost_model, k: int = 8):
    seq = strategy.sequence(distribution, cost_model)
    return tuple(float(v) for v in list(seq.values)[:k])


class ReserveOnly(TierStrategy):
    """The paper's model: everything on never-interrupted reservations."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"reserve_only[{inner.name}]"

    def plan(self, distribution, cost_model: CostModel, scenario) -> TierPlan:
        metrics.inc("spot.plans")
        cost = _reserved_cost(self.inner, distribution, cost_model)
        return TierPlan(
            strategy=self.name,
            tier="reserved",
            expected_cost=cost,
            spot_work_cap=0.0,
            checkpoint_interval=None,
            reserved_preview=_sequence_preview(
                self.inner, distribution, cost_model
            ),
            detail=f"series cost of {self.inner.name}",
        )


class SpotOnly(TierStrategy):
    """Everything on spot, restarting or checkpointing on interruption."""

    def __init__(self, checkpointed: bool = False):
        self.checkpointed = checkpointed
        self.name = "spot_checkpoint" if checkpointed else "spot_restart"

    def plan(self, distribution, cost_model: CostModel, scenario) -> TierPlan:
        from repro.platforms.spot.evaluator import expected_spot_busy_time

        metrics.inc("spot.plans")
        price, rate = scenario.certainty_equivalent()
        if self.checkpointed and rate > 0:
            tau = _spot_interval(scenario, rate, distribution)
            busy = expected_spot_busy_time(
                distribution,
                rate,
                checkpoint_interval=tau,
                checkpoint_overhead=scenario.checkpoint_overhead,
            )
            detail = f"tau={tau:.4g}, rate={rate:.4g}"
        else:
            tau = None
            busy = expected_spot_busy_time(distribution, rate)
            detail = f"restart, rate={rate:.4g}"
        return TierPlan(
            strategy=self.name,
            tier="spot",
            expected_cost=price * busy,
            spot_work_cap=math.inf,
            checkpoint_interval=tau,
            reserved_preview=(),
            detail=detail,
        )


class SpotThenReserve(TierStrategy):
    """Capped spot phase with checkpoints, reserved tail on the leftover law.

    The handover boundary ``u`` ranges over checkpoint multiples
    ``k tau, k = 1..max_segments`` (plus the pure endpoints ``u = 0`` and
    ``u = inf``), because a mid-segment handover would discard work since
    the last checkpoint.  Expected cost of a candidate:

    ``price * E[spot busy time, work capped at u]
    + P(X > u) * E[reserved cost of inner on (X - u | X > u)]``.
    """

    def __init__(self, inner, max_segments: int = 12):
        if max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got {max_segments}")
        self.inner = inner
        self.max_segments = max_segments
        self.name = f"spot_then_reserve[{inner.name}]"

    def plan(self, distribution, cost_model: CostModel, scenario) -> TierPlan:
        from repro.distributions.shifted import ShiftedTail
        from repro.platforms.spot.evaluator import expected_spot_busy_time

        metrics.inc("spot.plans")
        price, rate = scenario.certainty_equivalent()
        overhead = scenario.checkpoint_overhead
        tau = _spot_interval(scenario, rate, distribution)

        candidates: List[TierPlan] = [
            ReserveOnly(self.inner).plan(distribution, cost_model, scenario),
            SpotOnly(checkpointed=True).plan(distribution, cost_model, scenario),
        ]
        horizon = float(distribution.quantile(0.98))
        n_caps = min(self.max_segments, max(int(math.ceil(horizon / tau)), 1))
        for k in range(1, n_caps + 1):
            cap = k * tau
            tail_mass = float(distribution.sf(cap))
            if tail_mass < 1e-9:
                break
            spot_part = price * expected_spot_busy_time(
                distribution,
                rate,
                checkpoint_interval=tau,
                checkpoint_overhead=overhead,
                work_cap=cap,
            )
            leftover = ShiftedTail(distribution, cap)
            tail_cost = _reserved_cost(self.inner, leftover, cost_model)
            candidates.append(
                TierPlan(
                    strategy=self.name,
                    tier="mixed",
                    expected_cost=spot_part + tail_mass * tail_cost,
                    spot_work_cap=cap,
                    checkpoint_interval=tau,
                    reserved_preview=_sequence_preview(
                        self.inner, leftover, cost_model
                    ),
                    detail=(
                        f"u={cap:.4g} ({k} segments), tail mass "
                        f"{tail_mass:.3g}"
                    ),
                )
            )
        best = min(candidates, key=lambda p: p.expected_cost)
        if best.tier != "mixed":
            # An endpoint won; report it under this strategy's name so the
            # caller sees the sweep concluded "don't mix".
            best = TierPlan(
                strategy=self.name,
                tier=best.tier,
                expected_cost=best.expected_cost,
                spot_work_cap=best.spot_work_cap,
                checkpoint_interval=best.checkpoint_interval,
                reserved_preview=best.reserved_preview,
                detail=f"degenerated to {best.strategy}",
            )
        return best


def tier_lineup(inner, max_segments: int = 12) -> List[TierStrategy]:
    """The standard comparison set for a reserved-phase ``inner`` strategy."""
    return [
        ReserveOnly(inner),
        SpotOnly(checkpointed=False),
        SpotOnly(checkpointed=True),
        SpotThenReserve(inner, max_segments=max_segments),
    ]


def choose_tier(
    distribution,
    cost_model: CostModel,
    scenario,
    inner=None,
    max_segments: int = 12,
) -> TierPlan:
    """Plan every lineup variant and return the cheapest."""
    if inner is None:
        from repro.strategies.registry import make_strategy

        inner = make_strategy("mean_by_mean")
    plans = [
        strategy.plan(distribution, cost_model, scenario)
        for strategy in tier_lineup(inner, max_segments=max_segments)
    ]
    return min(plans, key=lambda p: p.expected_cost)
