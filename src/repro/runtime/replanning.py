"""Adaptive replanning: re-derive the strategy after every failure.

After a failed reservation of length ``c`` the job's law is ``X | X > c``
(:class:`LeftTruncated`).  An *adaptive* scheduler re-runs its strategy on
that conditional law before each new request, instead of walking a
pre-computed sequence.

A classical observation (which our tests verify empirically): for the
*optimal* policy this adaptivity gains nothing — the Theorem 5 DP already
conditions on survival at every step (its value function ``E*_i`` *is* the
optimal cost given ``X >= v_i``), so replanning reproduces the same
suffixes.  For sub-optimal heuristics, however, replanning can help: e.g.
MEAN-STDEV restarted on the conditional law adapts its step to the
conditional spread.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.cost import CostModel
from repro.distributions.base import Distribution
from repro.distributions.truncated import LeftTruncated
from repro.strategies.base import Strategy

__all__ = ["AdaptiveReplanner"]


class AdaptiveReplanner:
    """Wraps a strategy; produces each next request from the conditional law.

    Parameters
    ----------
    strategy_factory:
        Zero-argument callable returning a fresh strategy (so stateful
        strategies like BRUTE-FORCE are rebuilt per replan).
    distribution / cost_model:
        The base job law and platform costs.
    """

    def __init__(
        self,
        strategy_factory: Callable[[], Strategy],
        distribution: Distribution,
        cost_model: CostModel,
    ):
        self.strategy_factory = strategy_factory
        self.distribution = distribution
        self.cost_model = cost_model
        self._history: List[float] = []  # failed reservation lengths

    @property
    def knowledge_cut(self) -> float:
        """Largest length the job is known to exceed."""
        return max(self._history, default=0.0)

    def current_distribution(self) -> Distribution:
        cut = self.knowledge_cut
        if cut <= self.distribution.lower:
            return self.distribution
        return LeftTruncated(self.distribution, cut)

    def next_request(self) -> float:
        """Re-derive the strategy on the conditional law; return its t_1.

        The returned request is forced strictly above the knowledge cut (a
        replanned heuristic could otherwise propose an already-failed
        length).
        """
        dist = self.current_distribution()
        strategy = self.strategy_factory()
        seq = strategy.sequence(dist, self.cost_model)
        request = seq.first
        cut = self.knowledge_cut
        if request <= cut:
            # Walk the replanned sequence to the first useful entry.
            i = 0
            while request <= cut:
                i += 1
                while len(seq) <= i:
                    seq.extend_once()
                request = seq[i]
        return float(request)

    def record_failure(self, requested: float) -> None:
        requested = float(requested)
        if requested <= self.knowledge_cut:
            raise ValueError(
                f"failed request {requested} is not beyond what is already "
                f"known ({self.knowledge_cut})"
            )
        self._history.append(requested)

    def run(self, execution_time: float, max_attempts: int = 1000) -> tuple[float, int]:
        """Run a job of known duration adaptively; returns (cost, attempts)."""
        t = float(execution_time)
        if t < 0:
            raise ValueError(f"execution time must be nonnegative, got {t}")
        total = 0.0
        for attempt in range(1, max_attempts + 1):
            request = self.next_request()
            if t <= request:
                total += float(self.cost_model.reservation_cost(request, t))
                return total, attempt
            total += float(self.cost_model.failed_reservation_cost(request))
            self.record_failure(request)
        raise RuntimeError(
            f"job of duration {t} not completed within {max_attempts} attempts"
        )
