"""Checkpointed reservations — the paper's stated future work (Section 7).

    "Another interesting direction would be to include checkpoint snapshots
    at the end of some, if not all, reservations."

Model
-----
Work is preserved across reservations: at the end of every *unsuccessful*
reservation the application checkpoints its state at overhead ``C`` (time
units), so a job of total work ``t`` completes within the first cumulative
threshold ``u_k >= t``, where ``u_i = w_1 + ... + w_i`` and ``w_i`` is the
fresh work attempted in reservation ``i``.  Reservation ``i`` must be sized
``w_i + C`` (work plus the checkpoint written at its end); the final
reservation executes only the remaining work ``t - u_{k-1}`` (we conservatively
keep its requested length at ``w_k + C``).

Costs reuse the affine model of Eq. (1): a failed reservation costs
``(alpha + beta)(w_i + C) + gamma``; the successful one costs
``alpha (w_k + C) + beta (t - u_{k-1}) + gamma``.

Whereas without checkpointing the expected cost of any strategy is bounded
below by ``alpha t_1 + ...`` *per restart from scratch*, with checkpointing
the total executed work is exactly ``t`` plus overheads — so for small ``C``
the optimal checkpointed cost approaches the omniscient cost.  The DP of
Theorem 5 adapts directly: thresholds are chosen among the discrete values,
and the value function is indexed by the last threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.cost import CostModel
from repro.distributions.discrete import DiscreteDistribution
from repro.strategies.dynamic_programming import (
    backtrack_picks,
    solve_lower_envelope,
    suffix_and_prefix_sums,
)
from repro.utils.numeric import is_strictly_increasing
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "CheckpointPlan",
    "checkpoint_costs_for_times",
    "monte_carlo_checkpoint_cost",
    "expected_checkpoint_cost_series",
    "solve_checkpoint_dp",
]


@dataclass(frozen=True)
class CheckpointPlan:
    """A checkpointed strategy: increasing cumulative work thresholds."""

    thresholds: np.ndarray  # u_1 < u_2 < ... (cumulative work covered)
    overhead: float  # checkpoint cost C (time units)

    def __post_init__(self) -> None:
        u = np.asarray(self.thresholds, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise ValueError("need at least one threshold")
        if u[0] <= 0 or not is_strictly_increasing(u):
            raise ValueError("thresholds must be positive and strictly increasing")
        if self.overhead < 0:
            raise ValueError(f"checkpoint overhead must be nonnegative, got {self.overhead}")
        object.__setattr__(self, "thresholds", u)

    @property
    def increments(self) -> np.ndarray:
        """Fresh work per reservation ``w_i = u_i - u_{i-1}``."""
        return np.diff(self.thresholds, prepend=0.0)

    def reservation_lengths(self) -> np.ndarray:
        """Requested length of each reservation: ``w_i + C``."""
        return self.increments + self.overhead


def checkpoint_costs_for_times(
    plan: CheckpointPlan, times: np.ndarray, cost_model: CostModel
) -> np.ndarray:
    """Vectorized total cost per job under ``plan`` (one searchsorted +
    prefix sums, mirroring the non-checkpointed Monte-Carlo engine)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("execution times must be nonnegative")
    u = plan.thresholds
    if float(times.max()) > u[-1]:
        raise ValueError(
            f"plan covers work up to {u[-1]} but a job needs {times.max()}; "
            "extend the thresholds"
        )
    w_plus_c = plan.reservation_lengths()
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma

    k = np.searchsorted(u, times, side="left")  # index of finishing reservation
    failed = (alpha + beta) * w_plus_c + gamma
    prefix = np.concatenate([[0.0], np.cumsum(failed)])
    u_prev = np.concatenate([[0.0], u])[k]  # u_{k-1}
    final = alpha * w_plus_c[k] + beta * (times - u_prev) + gamma
    return prefix[k] + final


def monte_carlo_checkpoint_cost(
    plan: CheckpointPlan,
    distribution,
    cost_model: CostModel,
    n_samples: int = 1000,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of the expected checkpointed cost."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = as_generator(seed)
    times = distribution.rvs(n_samples, seed=rng)
    hi = distribution.upper
    if float(times.max()) > plan.thresholds[-1]:
        raise ValueError(
            f"plan (max threshold {plan.thresholds[-1]}) does not cover "
            f"sampled work {times.max()} (support upper bound {hi})"
        )
    return float(checkpoint_costs_for_times(plan, times, cost_model).mean())


def expected_checkpoint_cost_series(
    plan: CheckpointPlan,
    distribution,
    cost_model: CostModel,
    tail_tol: float = 1e-6,
) -> float:
    """Exact expected cost, Theorem-1-style.

    ``E = sum_i (alpha (w_i + C) + gamma) P(X > u_{i-1})
          + beta sum_i (w_i + C) P(X > u_i)
          + beta sum_i E[(X - u_{i-1}) 1{u_{i-1} < X <= u_i}]``

    and the last sum telescopes to ``E[X] - sum_{i>=1} u_i P(X > u_i) +
    sum u_{i-1} P(X > u_{i-1}) - ...``; we evaluate it directly by segment
    quadrature-free identities using the survival function at thresholds
    plus the mean:

    ``sum_k E[(X - u_{k-1}) 1{u_{k-1} < X <= u_k}]
        = E[X] - sum_{k>=1} w_k P(X > u_k)``    (telescoping).
    """
    u = plan.thresholds
    w_plus_c = plan.reservation_lengths()
    w = plan.increments
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma

    surv_prev = np.asarray(
        distribution.sf(np.concatenate([[0.0], u[:-1]])), dtype=float
    )
    surv = np.asarray(distribution.sf(u), dtype=float)
    if surv[-1] > tail_tol:
        raise ValueError(
            f"plan ends at {u[-1]} with survival {surv[-1]:.3g} > "
            f"tail_tol={tail_tol:.3g}; thresholds must cover the distribution"
        )
    total = float(np.sum((alpha * w_plus_c + gamma) * surv_prev))
    total += beta * float(np.sum(w_plus_c * surv))
    total += beta * (distribution.mean() - float(np.sum(w * surv)))
    return total


def solve_checkpoint_dp(
    discrete: DiscreteDistribution,
    cost_model: CostModel,
    overhead: float,
) -> CheckpointPlan:
    """Optimal checkpoint thresholds over a discrete support (Theorem-5-style
    DP, amortised O(n) on the lower-envelope kernel).

    ``U_i`` is the unnormalized optimal expected cost given ``X > v_{i-1}``
    (progress ``v_{i-1}`` already checkpointed); each step picks the next
    threshold ``v_j``:

    ``U_i = min_{j >= i} [ (alpha (v_j - v_{i-1} + C) + gamma) W_i
            + beta (S_j - S_{i-1}) - beta v_{i-1} (W_i - W_{j+1})
            + beta (v_j - v_{i-1} + C) W_{j+1} + U_{j+1} ]``

    where ``W_i = sum_{k>=i} f_k`` and ``S_j = sum_{k<=j} f_k v_k``.  The
    ``v_{i-1} W_{j+1}`` terms cancel, leaving the line of slope ``alpha v_j``
    and intercept ``beta S_j + beta (v_j + C) W_{j+1} + U_{j+1}`` in ``W_i``.
    """
    if overhead < 0:
        raise ValueError(f"overhead must be nonnegative, got {overhead}")
    v, _, suffix, prefix_fv = suffix_and_prefix_sums(discrete)
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma
    slopes = (alpha * v).tolist()
    intercepts = (beta * prefix_fv[1:] + beta * (v + overhead) * suffix[1:]).tolist()
    vs, W, S = v.tolist(), suffix.tolist(), prefix_fv.tolist()

    def value(i: int, j: int, U: List[float]) -> float:
        v_prev = vs[i - 1] if i else 0.0  # v_{i-1} with v_0 = 0
        w_jc = vs[j] - v_prev + overhead
        return (
            (alpha * w_jc + gamma) * W[i]
            + beta * (S[j + 1] - S[i])
            - beta * v_prev * (W[i] - W[j + 1])
            + beta * w_jc * W[j + 1]
            + U[j + 1]
        )

    _, choice, _ = solve_lower_envelope(W, [(slopes, intercepts, value)])
    return CheckpointPlan(thresholds=v[backtrack_picks(choice)], overhead=overhead)
