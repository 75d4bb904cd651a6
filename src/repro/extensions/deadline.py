"""Deadline-constrained reservations (related work [4]'s deadline/budget
setting transplanted onto the paper's model).

Problem
-------
Minimize the expected cost ``E(S)`` subject to a *completion-time
guarantee*: any job whose execution time is at most the ``q``-quantile
``Q(q)`` must finish within ``D`` wall-clock hours of its first submission,
counting every failed reservation in full (reservation-only timing:
the user sits through each wall).

For a sequence ``(t_1 < t_2 < …)``, the worst-case completion time of a
job with ``X <= t_k`` is ``Σ_{i<=k} t_i``, so the constraint is

``Σ_{i <= k_q} t_i <= D``   where ``k_q`` is the reservation covering ``Q(q)``.

Algorithm
---------
Extend the Theorem 5 DP with a *spent-budget* coordinate, discretized into
``budget_buckets`` levels (spent budget is rounded **up** to the next bucket,
so the returned plan's guarantee is conservative — never violated by the
rounding).  Beyond the quantile index the constraint is inactive and the
continuation is the unconstrained DP's value function, and the plan's tail
its per-level choices; :func:`solve_discrete_dp` exposes both.
Complexity: O(q · n · B).

Sweeping ``D`` traces the cost-vs-deadline Pareto frontier: loose deadlines
recover the unconstrained optimum; tight ones force fewer, larger
reservations (paying more in expectation for certainty); below
``Q(q)`` itself the problem is infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.cost import CostModel
from repro.distributions.discrete import DiscreteDistribution
from repro.strategies.dynamic_programming import (
    backtrack_picks,
    solve_discrete_dp,
    suffix_and_prefix_sums,
)

__all__ = ["DeadlineInfeasible", "DeadlinePlan", "solve_deadline_dp"]


class DeadlineInfeasible(ValueError):
    """No reservation sequence can meet the requested guarantee."""


@dataclass(frozen=True)
class DeadlinePlan:
    """Optimal deadline-constrained plan."""

    reservations: np.ndarray
    expected_cost: float
    quantile_point: float  # Q(q): the execution time that must meet D
    worst_case_completion: float  # Σ t_i through the covering reservation
    deadline: float

    def __post_init__(self) -> None:
        if self.worst_case_completion > self.deadline + 1e-9:
            raise AssertionError(
                "internal error: plan violates its own deadline guarantee"
            )


def solve_deadline_dp(
    discrete: DiscreteDistribution,
    cost_model: CostModel,
    deadline: float,
    completion_quantile: float = 0.99,
    budget_buckets: int = 400,
) -> DeadlinePlan:
    """Minimize expected cost subject to the quantile-deadline guarantee."""
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline}")
    if not (0.0 < completion_quantile < 1.0):
        raise ValueError(
            f"completion quantile must lie in (0,1), got {completion_quantile}"
        )
    if budget_buckets < 2:
        raise ValueError(f"need at least 2 budget buckets, got {budget_buckets}")

    v, f, suffix, prefix_fv = suffix_and_prefix_sums(discrete)
    n = v.size
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma

    # Index of the quantile point within the discrete support.
    cum = np.cumsum(f)
    q_idx = int(np.searchsorted(cum, completion_quantile, side="left"))
    q_idx = min(q_idx, n - 1)
    quantile_point = float(v[q_idx])
    if quantile_point > deadline:
        raise DeadlineInfeasible(
            f"even a single reservation at the {completion_quantile:g}-quantile "
            f"({quantile_point:g}) exceeds the deadline {deadline:g}"
        )

    plain = solve_discrete_dp(discrete, cost_model)  # the unconstrained DP

    # Budget grid: spent budget is snapped *up* onto grid points.
    grid = np.linspace(0.0, deadline, budget_buckets)

    INF = math.inf
    # U_c[i][b]: optimal cost-to-go from level i with grid[b] already spent,
    # for i = 0..q_idx (beyond q_idx the constraint is inactive).  Each level
    # is one vectorized (budget x choice) scan: O(q * B * n) element ops.
    U_c = np.full((q_idx + 1, budget_buckets), INF)
    choice_j = np.full((q_idx + 1, budget_buckets), -1, dtype=np.intp)
    choice_b = np.full((q_idx + 1, budget_buckets), -1, dtype=np.intp)

    for i in range(q_idx, -1, -1):
        j = np.arange(i, n)
        stage = (
            (alpha * v[j] + gamma) * suffix[i]
            + beta * (prefix_fv[j + 1] - prefix_fv[i])
            + beta * v[j] * suffix[j + 1]
        )  # shape (J,)
        # Next-bucket index for every (budget, choice) pair; rounding up.
        spent_next = grid[:, None] + v[None, j]  # (B, J)
        nb = np.searchsorted(grid, spent_next - 1e-12, side="left")
        feasible = spent_next <= deadline + 1e-12
        nb = np.minimum(nb, budget_buckets - 1)

        cont = np.empty((budget_buckets, j.size))
        before_q = j < q_idx  # choices that keep the constraint active
        if before_q.any():
            # U_c rows j+1 (all <= q_idx here), gathered at nb.
            rows = (j[before_q] + 1)[None, :].repeat(budget_buckets, axis=0)
            cont[:, before_q] = U_c[rows, nb[:, before_q]]
        if (~before_q).any():
            cont[:, ~before_q] = plain.value_unnormalized[j[~before_q] + 1][None, :]

        total = np.where(feasible, stage[None, :] + cont, INF)
        k = np.argmin(total, axis=1)  # best choice per budget level
        U_c[i] = total[np.arange(budget_buckets), k]
        choice_j[i] = j[k]
        choice_b[i] = nb[np.arange(budget_buckets), k]

    if not math.isfinite(U_c[0, 0]):
        raise DeadlineInfeasible(
            f"no sequence meets deadline {deadline:g} at quantile "
            f"{completion_quantile:g} with {budget_buckets} budget buckets"
        )

    # Backtrack: constrained region first, then the unconstrained suffix.
    picks: List[int] = []
    i, b = 0, 0
    while i <= q_idx:
        j, nb = int(choice_j[i, b]), int(choice_b[i, b])
        picks.append(j)
        if j >= q_idx:
            i = j + 1
            break
        i, b = j + 1, nb
    # Unconstrained suffix: the plain DP's own choices from level i on.
    picks.extend(backtrack_picks(plain.level_choices, i))

    reservations = v[np.asarray(picks, dtype=np.intp)]
    covering = int(np.searchsorted(reservations, quantile_point, side="left"))
    worst_case = float(reservations[: covering + 1].sum())
    return DeadlinePlan(
        reservations=reservations,
        expected_cost=float(U_c[0, 0]),
        quantile_point=quantile_point,
        worst_case_completion=worst_case,
        deadline=deadline,
    )
