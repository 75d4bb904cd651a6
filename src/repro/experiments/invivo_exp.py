"""Extension experiment E4 — in-vivo validation inside the batch queue.

The paper evaluates NEUROHPC strategies against the fitted affine wait
model.  E4 removes the model: VBMQA-like jobs flow through the *simulated*
cluster (EASY backfilling), each reservation attempt is a real queue
submission, and kills trigger resubmission.  We compare

* the realized mean turnaround per strategy (all queueing feedback included),
* against the model-predicted ordering of Fig. 4.

The headline to verify: the ordering survives contact with a real queue —
the DP/BF family still wins — even though the affine model is only an
approximation of the simulator's wait behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.batchsim.reservation_flow import FlowResult, run_reservation_flow
from repro.core.cost import CostModel
from repro.experiments.common import PAPER, ExperimentConfig
from repro.platforms.neurohpc import vbmqa_hours_distribution
from repro.simulation.evaluator import evaluate_strategy
from repro.strategies.registry import paper_strategies
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table

__all__ = ["InVivoRow", "run_invivo_experiment", "format_invivo_experiment"]

#: Strategies compared in vivo (BRUTE-FORCE is represented by the DP twins —
#: they are indistinguishable in Fig. 4 and deterministic to rebuild).
STRATEGY_SUBSET = (
    "equal_probability_dp",
    "equal_time_dp",
    "mean_by_mean",
    "mean_doubling",
    "median_by_median",
)


@dataclass(frozen=True)
class InVivoRow:
    strategy: str
    realized_turnaround: float  # simulated queue, hours
    realized_p95: float
    mean_attempts: float
    model_normalized: float  # the paper-model prediction (series-evaluated)


def run_invivo_experiment(
    config: ExperimentConfig = PAPER,
    n_jobs: int = 600,
    total_nodes: int = 16,
    arrival_rate: float = 20.0,
) -> List[InVivoRow]:
    """Run the strategy subset through the simulated queue."""
    distribution = vbmqa_hours_distribution()
    cost_model = CostModel.neurohpc()
    strategies = paper_strategies(
        m_grid=config.m_grid,
        n_samples=config.n_samples,
        n_discrete=min(config.n_discrete, 400),
        epsilon=config.epsilon,
        seed=config.seed,
    )
    rngs = spawn_generators(config.seed, len(STRATEGY_SUBSET))

    rows: List[InVivoRow] = []
    for name, rng in zip(STRATEGY_SUBSET, rngs):
        strategy = strategies[name]
        flow: FlowResult = run_reservation_flow(
            strategy,
            distribution,
            n_jobs=n_jobs,
            total_nodes=total_nodes,
            arrival_rate=arrival_rate,
            seed=config.seed,  # same jobs & arrivals for every strategy
            cost_model=cost_model,
        )
        model = evaluate_strategy(
            strategy, distribution, cost_model, method="series"
        )
        rows.append(
            InVivoRow(
                strategy=name,
                realized_turnaround=flow.mean_turnaround(),
                realized_p95=flow.p95_turnaround(),
                mean_attempts=flow.mean_attempts(),
                model_normalized=model.normalized_cost,
            )
        )
    return rows


def format_invivo_experiment(rows: List[InVivoRow]) -> str:
    return format_table(
        [
            "Strategy",
            "realized turnaround (h)",
            "realized p95 (h)",
            "attempts/job",
            "model prediction (norm.)",
        ],
        [
            [
                r.strategy,
                f"{r.realized_turnaround:.3f}",
                f"{r.realized_p95:.3f}",
                f"{r.mean_attempts:.2f}",
                f"{r.model_normalized:.3f}",
            ]
            for r in rows
        ],
        title="Extension E4: strategies inside the simulated batch queue "
        "(VBMQA workload, EASY backfilling)",
    )
