"""Discretization-based dynamic-programming heuristics (Section 4.2).

EQUAL-TIME and EQUAL-PROBABILITY: truncate the continuous law at
``b = Q(1 - eps)``, discretize into ``n`` points with the chosen scheme, and
solve the discrete problem optimally with the Theorem 5 DP.  The resulting
sequence ends at ``b``; for unbounded laws it is extended past ``b`` on
demand with the MEAN-BY-MEAN step (conditional expectation of the remaining
tail), as the paper prescribes appending values from another heuristic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.discretization.schemes import discretize
from repro.discretization.truncation import DEFAULT_EPSILON
from repro.strategies.base import Strategy
from repro.strategies.dynamic_programming import solve_discrete_dp
from repro.utils.numeric import MONOTONE_ATOL

__all__ = ["DiscretizedDP", "EqualTimeDP", "EqualProbabilityDP"]


class DiscretizedDP(Strategy):
    """Truncate -> discretize (scheme) -> Theorem 5 DP -> tail extension."""

    def __init__(
        self,
        scheme: str,
        n: int = 1000,
        epsilon: float = DEFAULT_EPSILON,
    ):
        if n < 1:
            raise ValueError(f"need at least one discretization point, got n={n}")
        self.scheme = scheme
        self.n = n
        self.epsilon = epsilon
        self.name = f"{scheme}_dp"

    def sequence(self, distribution, cost_model: CostModel) -> ReservationSequence:
        discrete = discretize(distribution, self.n, self.scheme, self.epsilon)
        result = solve_discrete_dp(discrete, cost_model)
        values = result.reservations
        hi = distribution.upper

        if math.isfinite(hi):
            # Bounded law: the DP's last value is (up to round-off) b itself.
            if values[-1] < hi - MONOTONE_ATOL:
                values = np.append(values, hi)
            return ReservationSequence(values, name=self.name)

        def extend(current: np.ndarray) -> float:
            # MEAN-BY-MEAN tail: next = E[X | X > last].
            prev = float(current[-1])
            nxt = float(distribution.conditional_expectation(prev))
            if nxt <= prev + MONOTONE_ATOL:
                # Extremely deep tail where the closed form saturates —
                # double instead so coverage is still guaranteed.
                return prev * 2.0
            return nxt

        return ReservationSequence(values, extend=extend, name=self.name)


class EqualTimeDP(DiscretizedDP):
    """EQUAL-TIME discretization + DP (the paper's ``Equal-time`` column)."""

    def __init__(self, n: int = 1000, epsilon: float = DEFAULT_EPSILON):
        super().__init__("equal_time", n=n, epsilon=epsilon)


class EqualProbabilityDP(DiscretizedDP):
    """EQUAL-PROBABILITY discretization + DP (``Equal-prob.`` column)."""

    def __init__(self, n: int = 1000, epsilon: float = DEFAULT_EPSILON):
        super().__init__("equal_probability", n=n, epsilon=epsilon)
