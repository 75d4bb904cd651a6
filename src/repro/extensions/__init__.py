"""Extensions beyond the paper's core scope: checkpointed reservations and
multi-resource (time x processors) reservations — the two future-work
directions of Section 7."""

from repro.extensions.checkpoint import (
    CheckpointPlan,
    checkpoint_costs_for_times,
    expected_checkpoint_cost_series,
    monte_carlo_checkpoint_cost,
    solve_checkpoint_dp,
)
from repro.extensions.deadline import (
    DeadlineInfeasible,
    DeadlinePlan,
    solve_deadline_dp,
)
from repro.extensions.multiresource import (
    AmdahlSpeedup,
    MultiReservation,
    MultiResourceCostModel,
    MultiResourcePlan,
    PowerLawSpeedup,
    SpeedupModel,
    monte_carlo_multi_cost,
    multi_costs_for_times,
    omniscient_multi_cost,
    solve_multiresource_dp,
)

__all__ = [
    "CheckpointPlan",
    "checkpoint_costs_for_times",
    "expected_checkpoint_cost_series",
    "monte_carlo_checkpoint_cost",
    "solve_checkpoint_dp",
    "DeadlineInfeasible",
    "DeadlinePlan",
    "solve_deadline_dp",
    "SpeedupModel",
    "AmdahlSpeedup",
    "PowerLawSpeedup",
    "MultiResourceCostModel",
    "MultiReservation",
    "MultiResourcePlan",
    "multi_costs_for_times",
    "monte_carlo_multi_cost",
    "omniscient_multi_cost",
    "solve_multiresource_dp",
]
