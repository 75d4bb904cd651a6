"""Extension experiment E3 — multi-resource reservations (Section 7, first
future-work item).

For the VBMQA-like LogNormal *work* distribution, sweep the per-processor
reservation price ``alpha1`` and the speedup model's scalability, and report
the optimal plan's processor choices and normalized cost.  Expected shape:

* cheap parallelism (low ``alpha1``, good scaling) → wide requests, cost
  approaching the clairvoyant bound;
* expensive parallelism → the plan degenerates to the paper's single-
  processor setting;
* a crossover in between, whose location shifts with the serial fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.discretization.schemes import equal_probability
from repro.distributions.lognormal import LogNormal
from repro.experiments.common import PAPER, ExperimentConfig
from repro.extensions.multiresource import (
    AmdahlSpeedup,
    MultiResourceCostModel,
    monte_carlo_multi_cost,
    omniscient_multi_cost,
    solve_multiresource_dp,
)
from repro.utils.rng import spawn_generators
from repro.utils.tables import format_table

__all__ = ["MultiResourceRow", "run_multiresource_experiment",
           "format_multiresource_experiment"]

PROCESSOR_CHOICES = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class MultiResourceRow:
    alpha1: float
    serial_fraction: float
    max_processors: int  # widest request in the optimal plan
    plan_length: int
    expected_cost: float
    omniscient_cost: float

    @property
    def normalized(self) -> float:
        return self.expected_cost / self.omniscient_cost


def run_multiresource_experiment(
    alpha1_values: Sequence[float] = (0.01, 0.05, 0.2, 1.0),
    serial_fractions: Sequence[float] = (0.02, 0.2),
    config: ExperimentConfig = PAPER,
) -> List[MultiResourceRow]:
    """Sweep (alpha1, serial fraction) for LogNormal(0, 0.8) work."""
    work = LogNormal(0.0, 0.8)
    discrete = equal_probability(work, min(config.n_discrete, 400), 1e-6)
    rngs = spawn_generators(
        config.seed, len(alpha1_values) * len(serial_fractions)
    )
    rows: List[MultiResourceRow] = []
    i = 0
    for sf in serial_fractions:
        speedup = AmdahlSpeedup(sf)
        for a1 in alpha1_values:
            cm = MultiResourceCostModel(
                alpha0=0.2, alpha1=a1, beta=1.0, gamma=0.1
            )
            plan = solve_multiresource_dp(discrete, cm, speedup, PROCESSOR_CHOICES)
            cost = monte_carlo_multi_cost(
                plan, work, cm, n_samples=config.n_samples, seed=rngs[i]
            )
            rows.append(
                MultiResourceRow(
                    alpha1=a1,
                    serial_fraction=sf,
                    max_processors=max(r.processors for r in plan.reservations),
                    plan_length=len(plan),
                    expected_cost=cost,
                    omniscient_cost=omniscient_multi_cost(
                        work, cm, speedup, PROCESSOR_CHOICES
                    ),
                )
            )
            i += 1
    return rows


def format_multiresource_experiment(rows: List[MultiResourceRow]) -> str:
    return format_table(
        ["serial frac", "alpha1", "widest request (procs)", "plan len",
         "E(S)", "E^o", "normalized"],
        [
            [
                f"{r.serial_fraction:g}",
                f"{r.alpha1:g}",
                str(r.max_processors),
                str(r.plan_length),
                f"{r.expected_cost:.3f}",
                f"{r.omniscient_cost:.3f}",
                f"{r.normalized:.3f}",
            ]
            for r in rows
        ],
        title="Extension E3: multi-resource reservations (time x processors), "
        "LogNormal(0, 0.8) work, Amdahl speedup",
    )
