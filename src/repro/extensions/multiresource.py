"""Multi-resource reservations — the paper's first future-work item
(Section 7):

    "Future work will include allowing requests with variable amount of
    resources, hence offering a combination of a reservation time and a
    number of processors."

Model
-----
A job has stochastic *sequential work* ``W ~ D`` (hours on one processor).
On ``p`` processors it runs for ``time = W * g(p)`` where ``g`` comes from a
speedup model (Amdahl: ``g(p) = f + (1-f)/p``; power-law: ``g(p) =
p^{-alpha}``).  A reservation is a pair ``(t, p)``; the job finishes inside
it iff ``W * g(p) <= t``, i.e. iff ``W <= t / g(p)`` (the reservation's
*work coverage*).

Costs generalize Eq. (1): a reservation of ``t`` hours on ``p`` processors
with executed time ``e = min(t, W g(p))`` costs

``(alpha0 + alpha1 * p) * t + beta * e + gamma``

— ``alpha1`` prices the extra queue penalty / node-hour charge of wider
requests; ``p = 1`` recovers the paper's model with ``alpha = alpha0 +
alpha1``.  The tension: more processors shrink the executed time (``beta``
term) but inflate the reservation price (``alpha1`` term), so the optimal
width depends on the workload and the platform — the crossover our E3
experiment maps.

The Theorem 5 DP generalizes directly: discretize ``W``, and at each state
choose both the next covered work level ``v_j`` *and* a processor count.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.strategies.dynamic_programming import (
    LineFamily,
    backtrack_picks,
    solve_lower_envelope,
    suffix_and_prefix_sums,
)
from repro.utils.numeric import is_strictly_increasing
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "SpeedupModel",
    "AmdahlSpeedup",
    "PowerLawSpeedup",
    "MultiResourceCostModel",
    "MultiReservation",
    "MultiResourcePlan",
    "multi_costs_for_times",
    "monte_carlo_multi_cost",
    "solve_multiresource_dp",
]


# ----------------------------------------------------------------------
# Speedup models
# ----------------------------------------------------------------------
class SpeedupModel(abc.ABC):
    """Execution-time scaling: ``time(w, p) = w * g(p)`` with ``g(1) = 1``,
    ``g`` nonincreasing."""

    @abc.abstractmethod
    def g(self, p: int) -> float:
        """Per-unit-work time factor on ``p`` processors."""

    def time(self, work: float, p: int) -> float:
        return work * self.g(p)

    def coverage(self, t: float, p: int) -> float:
        """Largest work finishing within ``t`` hours on ``p`` processors."""
        return t / self.g(p)


class AmdahlSpeedup(SpeedupModel):
    """Amdahl's law with serial fraction ``f``: ``g(p) = f + (1-f)/p``."""

    def __init__(self, serial_fraction: float = 0.1):
        if not (0.0 <= serial_fraction <= 1.0):
            raise ValueError(
                f"serial fraction must lie in [0, 1], got {serial_fraction}"
            )
        self.serial_fraction = float(serial_fraction)

    def g(self, p: int) -> float:
        if p < 1:
            raise ValueError(f"need at least one processor, got {p}")
        f = self.serial_fraction
        return f + (1.0 - f) / p


class PowerLawSpeedup(SpeedupModel):
    """``g(p) = p^{-alpha}`` with ``alpha in [0, 1]`` (alpha=1: perfect)."""

    def __init__(self, alpha: float = 0.8):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"scaling exponent must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def g(self, p: int) -> float:
        if p < 1:
            raise ValueError(f"need at least one processor, got {p}")
        return float(p) ** (-self.alpha)


# ----------------------------------------------------------------------
# Cost model and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultiResourceCostModel:
    """``cost(t, p, e) = (alpha0 + alpha1 p) t + beta e + gamma``."""

    alpha0: float = 0.5
    alpha1: float = 0.5
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha0 < 0 or self.alpha1 < 0:
            raise ValueError("alpha terms must be nonnegative")
        if self.alpha0 + self.alpha1 <= 0:
            raise ValueError("need a positive reservation price")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("beta and gamma must be nonnegative")

    def alpha(self, p: int) -> float:
        return self.alpha0 + self.alpha1 * p

    def reservation_cost(self, t: float, p: int, executed: float) -> float:
        return self.alpha(p) * t + self.beta * executed + self.gamma


@dataclass(frozen=True)
class MultiReservation:
    """One ``(duration, processors)`` request."""

    duration: float
    processors: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.processors < 1:
            raise ValueError(
                f"need at least one processor, got {self.processors}"
            )

    def coverage(self, speedup: SpeedupModel) -> float:
        return speedup.coverage(self.duration, self.processors)


class MultiResourcePlan:
    """An increasing-coverage sequence of multi-resource reservations."""

    def __init__(
        self, reservations: Sequence[MultiReservation], speedup: SpeedupModel
    ):
        if not reservations:
            raise ValueError("a plan needs at least one reservation")
        self.reservations = list(reservations)
        self.speedup = speedup
        cov = [r.coverage(speedup) for r in self.reservations]
        if not is_strictly_increasing(cov):
            raise ValueError(
                f"work coverage must be strictly increasing, got {cov}"
            )
        self._coverage = np.asarray(cov)

    def __len__(self) -> int:
        return len(self.reservations)

    @property
    def coverage(self) -> np.ndarray:
        return self._coverage

    @property
    def max_work(self) -> float:
        return float(self._coverage[-1])


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def multi_costs_for_times(
    plan: MultiResourcePlan,
    works: np.ndarray,
    cost_model: MultiResourceCostModel,
) -> np.ndarray:
    """Vectorized total cost per job (sequential work ``works``)."""
    works = np.asarray(works, dtype=float)
    if np.any(works < 0):
        raise ValueError("work amounts must be nonnegative")
    # Coverage levels go through a duration = w*g(p) -> w = duration/g(p)
    # roundtrip, so jobs sitting exactly on a boundary (discrete supports)
    # can land 1 ulp past it; a relative tolerance absorbs that.
    rtol = 1e-9
    if float(works.max()) > plan.max_work * (1.0 + rtol):
        raise ValueError(
            f"plan covers work up to {plan.max_work} but a job needs "
            f"{works.max()}; extend the plan"
        )
    durations = np.array([r.duration for r in plan.reservations])
    procs = np.array([r.processors for r in plan.reservations], dtype=float)
    g = np.array([plan.speedup.g(r.processors) for r in plan.reservations])

    k = np.searchsorted(plan.coverage, works * (1.0 - rtol), side="left")
    k = np.minimum(k, len(plan.reservations) - 1)
    alpha_p = cost_model.alpha0 + cost_model.alpha1 * procs
    # Failed reservation i: full duration executed.
    failed = alpha_p * durations + cost_model.beta * durations + cost_model.gamma
    prefix = np.concatenate([[0.0], np.cumsum(failed)])
    executed_final = works * g[k]
    final = (
        alpha_p[k] * durations[k]
        + cost_model.beta * executed_final
        + cost_model.gamma
    )
    return prefix[k] + final


def monte_carlo_multi_cost(
    plan: MultiResourcePlan,
    distribution,
    cost_model: MultiResourceCostModel,
    n_samples: int = 1000,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo expected cost of ``plan`` for work ``W ~ distribution``."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = as_generator(seed)
    works = distribution.rvs(n_samples, seed=rng)
    return float(multi_costs_for_times(plan, works, cost_model).mean())


def omniscient_multi_cost(
    distribution,
    cost_model: MultiResourceCostModel,
    speedup: SpeedupModel,
    processor_choices: Sequence[int],
) -> float:
    """Clairvoyant bound: knowing ``W``, reserve exactly ``(W g(p), p)`` with
    the cheapest ``p`` — the multi-resource analogue of ``E^o``."""
    best = math.inf
    for p in processor_choices:
        g = speedup.g(p)
        unit = (cost_model.alpha(p) + cost_model.beta) * g
        best = min(best, unit)
    return best * distribution.mean() + cost_model.gamma


# ----------------------------------------------------------------------
# Optimal DP (Theorem 5 generalized to (level, processors) choices)
# ----------------------------------------------------------------------
def solve_multiresource_dp(
    discrete: DiscreteDistribution,
    cost_model: MultiResourceCostModel,
    speedup: SpeedupModel,
    processor_choices: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> MultiResourcePlan:
    """Optimal multi-resource plan over a discrete work distribution.

    ``U_i = min_{j >= i, p} [ (alpha(p) t_{jp} + gamma) W_i
             + beta g(p) (S_j - S_{i-1}) + beta t_{jp} W_{j+1} + U_{j+1} ]``

    with ``t_{jp} = v_j g(p)``: one family of lines in ``W_i`` per processor
    count on the lower-envelope kernel, amortised O(n |P|).
    """
    procs = sorted(set(int(p) for p in processor_choices))
    if not procs or procs[0] < 1:
        raise ValueError(f"invalid processor choices: {processor_choices}")
    v, _, suffix, prefix_fv = suffix_and_prefix_sums(discrete)
    a0, a1 = cost_model.alpha0, cost_model.alpha1
    beta, gamma = cost_model.beta, cost_model.gamma
    W, S = suffix.tolist(), prefix_fv.tolist()

    def family(p: int) -> LineFamily:
        g, alpha_p = speedup.g(p), a0 + a1 * p
        t = v * g
        t_list = t.tolist()

        def value(i: int, j: int, U: List[float]) -> float:
            return (
                (alpha_p * t_list[j] + gamma) * W[i]
                + beta * g * (S[j + 1] - S[i])
                + beta * t_list[j] * W[j + 1]
                + U[j + 1]
            )

        intercepts = beta * g * prefix_fv[1:] + beta * t * suffix[1:]
        return (alpha_p * t).tolist(), intercepts.tolist(), value

    _, choice, chosen = solve_lower_envelope(W, [family(p) for p in procs])
    picks = backtrack_picks(choice)
    levels = [0] + [j + 1 for j in picks[:-1]]  # the level that chose each pick
    widths = [procs[chosen[i]] for i in levels]
    reservations = [
        MultiReservation(duration=float(v[j]) * speedup.g(p), processors=p)
        for j, p in zip(picks, widths)
    ]
    return MultiResourcePlan(reservations, speedup)
