"""Tests for the deadline-constrained DP."""

import itertools
import math

import numpy as np
import pytest

from repro import CostModel, DiscreteDistribution, LogNormal
from repro.discretization import equal_probability
from repro.extensions.deadline import (
    DeadlineInfeasible,
    DeadlinePlan,
    solve_deadline_dp,
)
from repro.strategies.dynamic_programming import backtrack_picks, solve_discrete_dp


def small_discrete():
    return DiscreteDistribution([1.0, 2.0, 4.0, 8.0], [0.4, 0.3, 0.2, 0.1])


class TestValidation:
    def test_bad_args(self):
        d = small_discrete()
        cm = CostModel.reservation_only()
        with pytest.raises(ValueError):
            solve_deadline_dp(d, cm, deadline=0.0)
        with pytest.raises(ValueError):
            solve_deadline_dp(d, cm, deadline=10.0, completion_quantile=1.0)
        with pytest.raises(ValueError):
            solve_deadline_dp(d, cm, deadline=10.0, budget_buckets=1)

    def test_infeasible_deadline(self):
        d = small_discrete()
        cm = CostModel.reservation_only()
        # Q(0.99) over this support is 8.0; deadline below it is impossible.
        with pytest.raises(DeadlineInfeasible, match="exceeds the deadline"):
            solve_deadline_dp(d, cm, deadline=7.0, completion_quantile=0.99)


class TestGuarantee:
    @pytest.mark.parametrize("deadline", [8.0, 9.5, 12.0, 100.0])
    def test_worst_case_within_deadline(self, deadline):
        d = small_discrete()
        cm = CostModel(alpha=1.0, beta=0.5, gamma=0.2)
        plan = solve_deadline_dp(d, cm, deadline=deadline,
                                 completion_quantile=0.99)
        assert plan.worst_case_completion <= deadline + 1e-9
        assert plan.quantile_point == 8.0

    def test_loose_deadline_recovers_unconstrained(self):
        d = small_discrete()
        cm = CostModel.reservation_only()
        unconstrained = solve_discrete_dp(d, cm)
        plan = solve_deadline_dp(d, cm, deadline=1000.0,
                                 completion_quantile=0.99,
                                 budget_buckets=2000)
        assert plan.expected_cost == pytest.approx(
            unconstrained.expected_cost, rel=1e-9
        )
        np.testing.assert_allclose(plan.reservations, unconstrained.reservations)

    def test_suffix_backtrack_matches_tail_resolve(self):
        """The plan's unconstrained tail is read off the full solve's level
        choices; it must equal solving the DP again on the suffix law."""
        d = equal_probability(LogNormal(3.0, 0.5), 300, 1e-6)
        cm = CostModel.reservation_only()
        full = solve_discrete_dp(d, cm)
        v, f = d.values, d.masses / d.masses.sum()
        for i in range(1, v.size):
            tail = solve_discrete_dp(DiscreteDistribution(v[i:], f[i:]), cm)
            assert backtrack_picks(full.level_choices, i) == [
                i + int(k) for k in tail.choice_indices
            ]

    def test_tight_deadline_single_shot(self):
        d = small_discrete()
        cm = CostModel.reservation_only()
        plan = solve_deadline_dp(d, cm, deadline=8.0, completion_quantile=0.99)
        # Only (8.0) can meet an 8-hour guarantee for the 8-hour quantile.
        assert plan.reservations[0] == 8.0
        assert plan.worst_case_completion == 8.0

    def test_cost_monotone_in_deadline(self):
        d = equal_probability(LogNormal(3.0, 0.5), 150, 1e-6)
        cm = CostModel.reservation_only()
        costs = []
        for D in [75.0, 100.0, 160.0, 400.0]:
            plan = solve_deadline_dp(d, cm, deadline=D,
                                     completion_quantile=0.99,
                                     budget_buckets=200)
            costs.append(plan.expected_cost)
        assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))


class TestAgainstExhaustive:
    def test_matches_exhaustive_small(self, rng):
        """Constrained DP equals brute-force over all feasible subsets."""
        cm = CostModel(alpha=1.0, beta=0.3, gamma=0.1)
        for trial in range(5):
            n = int(rng.integers(3, 6))
            v = np.sort(rng.uniform(1.0, 10.0, size=n))
            if np.min(np.diff(v)) < 1e-6:
                continue
            f = rng.dirichlet(np.ones(n))
            d = DiscreteDistribution(v, f)
            q = 0.95
            cum = np.cumsum(f)
            q_idx = min(int(np.searchsorted(cum, q)), n - 1)
            deadline = float(v[q_idx] * rng.uniform(1.1, 2.5))

            plan = solve_deadline_dp(
                d, cm, deadline=deadline, completion_quantile=q,
                budget_buckets=4000,
            )

            best = math.inf
            for r in range(n):
                for subset in itertools.combinations(range(n - 1), r):
                    picks = list(subset) + [n - 1]
                    seq = v[np.asarray(picks, dtype=int)]
                    k_q = int(np.searchsorted(seq, v[q_idx], side="left"))
                    if float(seq[: k_q + 1].sum()) > deadline:
                        continue
                    cost = 0.0
                    for val, p in zip(v, f):
                        cost += p * cm.sequence_cost(list(seq), float(val))
                    best = min(best, cost)
            assert plan.expected_cost == pytest.approx(best, rel=1e-6), trial


class TestPlanInvariant:
    def test_violating_plan_rejected(self):
        with pytest.raises(AssertionError, match="guarantee"):
            DeadlinePlan(
                reservations=np.array([5.0, 9.0]),
                expected_cost=1.0,
                quantile_point=9.0,
                worst_case_completion=14.0,
                deadline=10.0,
            )
