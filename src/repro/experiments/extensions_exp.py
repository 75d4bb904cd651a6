"""Extension experiments E1 (convex costs) and E2 (checkpointing).

E1 — Appendix C with a quadratic reservation cost ``G(x) = a2 x^2 + x``:
the optimal sequences become shorter-stepped (superlinear pricing punishes
over-reservation harder), and the affine instance of the convex machinery
must agree exactly with the Eq. (11) pipeline.

E2 — Section 7's future-work direction: end-of-reservation checkpointing.
For each distribution, the optimal checkpointed plan (DP over a discretized
support) versus the optimal non-checkpointed DP sequence, across checkpoint
overheads.  With zero overhead and RESERVATIONONLY pricing, checkpointing
drives the normalized cost toward 1 (work is never redone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.convex import (
    QuadraticReservationCost,
    brute_force_convex_t1,
)
from repro.core.cost import CostModel
from repro.discretization.schemes import equal_probability
from repro.distributions.registry import paper_distributions
from repro.experiments.common import PAPER, ExperimentConfig
from repro.extensions.checkpoint import (
    expected_checkpoint_cost_series,
    solve_checkpoint_dp,
)
from repro.simulation.evaluator import evaluate_strategy
from repro.strategies.discretized_dp import EqualProbabilityDP
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table

__all__ = [
    "ConvexRow",
    "run_convex_experiment",
    "format_convex_experiment",
    "CheckpointRow",
    "run_checkpoint_experiment",
    "format_checkpoint_experiment",
]


# ----------------------------------------------------------------------
# E1: convex (quadratic) reservation cost
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvexRow:
    distribution: str
    a2: float
    best_t1: float
    expected_cost: float
    omniscient_cost: float  # E[G(X)] analogue: G(t) paid on exact reservation
    sequence_len: int

    @property
    def normalized(self) -> float:
        return self.expected_cost / self.omniscient_cost


def run_convex_experiment(
    a2_values: Tuple[float, ...] = (0.1, 1.0),
    distribution_names: Tuple[str, ...] = ("exponential", "lognormal", "uniform"),
    config: ExperimentConfig = PAPER,
    n_grid: int = 400,
) -> List[ConvexRow]:
    """Quadratic cost ``G(x) = a2 x^2 + x`` (beta = 0) per distribution."""
    from scipy import integrate

    dists = paper_distributions()
    rows: List[ConvexRow] = []
    for name in distribution_names:
        dist = dists[name]
        for a2 in a2_values:
            cost = QuadraticReservationCost(a2=a2, a1=1.0)
            t1, expected, seq = brute_force_convex_t1(
                dist, cost, beta=0.0, n_grid=n_grid
            )
            lo, hi_ = dist.support()
            hi = hi_ if hi_ != float("inf") else float(dist.quantile(1 - 1e-10))
            omniscient, _ = integrate.quad(
                lambda t: cost.g(t) * dist.pdf(t), lo, hi, limit=200
            )
            rows.append(
                ConvexRow(
                    distribution=name,
                    a2=a2,
                    best_t1=t1,
                    expected_cost=expected,
                    omniscient_cost=omniscient,
                    sequence_len=len(seq),
                )
            )
    return rows


def format_convex_experiment(rows: List[ConvexRow]) -> str:
    return format_table(
        ["Distribution", "a2", "best t1", "E(S)", "E^o", "normalized", "len"],
        [
            [
                r.distribution,
                f"{r.a2:g}",
                f"{r.best_t1:.4g}",
                f"{r.expected_cost:.4f}",
                f"{r.omniscient_cost:.4f}",
                f"{r.normalized:.3f}",
                str(r.sequence_len),
            ]
            for r in rows
        ],
        title="Extension E1: quadratic reservation cost G(x) = a2 x^2 + x "
        "(Appendix C machinery)",
    )


# ----------------------------------------------------------------------
# E2: checkpointing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointRow:
    distribution: str
    overhead: float
    checkpoint_cost: float  # normalized by omniscient
    no_checkpoint_cost: float  # optimal DP without checkpoints, normalized

    @property
    def improvement(self) -> float:
        """Fractional cost reduction from checkpointing (can be negative
        when the overhead outweighs the saved re-execution)."""
        return 1.0 - self.checkpoint_cost / self.no_checkpoint_cost


def run_checkpoint_experiment(
    overheads: Tuple[float, ...] = (0.0, 0.05, 0.25, 1.0),
    distribution_names: Tuple[str, ...] = ("exponential", "lognormal", "weibull"),
    config: ExperimentConfig = PAPER,
) -> List[CheckpointRow]:
    """Optimal checkpointed vs non-checkpointed cost, RESERVATIONONLY.

    Overheads are in units of the distribution mean (scaled per law) so the
    comparison is meaningful across distributions.
    """
    cost_model = CostModel.reservation_only()
    dists = paper_distributions()
    rngs = spawn_generators(config.seed, len(distribution_names))
    rows: List[CheckpointRow] = []
    for name, rng in zip(distribution_names, rngs):
        dist = dists[name]
        omniscient = cost_model.omniscient_expected_cost(dist)
        discrete = equal_probability(dist, config.n_discrete, config.epsilon)
        no_ckpt = evaluate_strategy(
            EqualProbabilityDP(n=config.n_discrete, epsilon=config.epsilon),
            dist,
            cost_model,
            method="monte_carlo",
            n_samples=config.n_samples,
            seed=rng,
        ).normalized_cost
        for overhead_rel in overheads:
            overhead = overhead_rel * dist.mean()
            plan = solve_checkpoint_dp(discrete, cost_model, overhead)
            ckpt_cost = expected_checkpoint_cost_series(plan, dist, cost_model)
            rows.append(
                CheckpointRow(
                    distribution=name,
                    overhead=overhead_rel,
                    checkpoint_cost=ckpt_cost / omniscient,
                    no_checkpoint_cost=no_ckpt,
                )
            )
    return rows


def format_checkpoint_experiment(rows: List[CheckpointRow]) -> str:
    return format_table(
        ["Distribution", "C / mean", "ckpt cost", "no-ckpt cost", "improvement"],
        [
            [
                r.distribution,
                f"{r.overhead:g}",
                f"{r.checkpoint_cost:.3f}",
                f"{r.no_checkpoint_cost:.3f}",
                f"{100.0 * r.improvement:+.1f}%",
            ]
            for r in rows
        ],
        title="Extension E2: checkpointed reservations (normalized costs, "
        "ReservationOnly)",
    )
