"""Tests for the cost-distribution statistics module."""

import math

import numpy as np
import pytest

from repro import CostModel, Exponential, LogNormal, ReservationSequence, Uniform
from repro.core.sequence import constant_extender
from repro.simulation.statistics import (
    cost_statistics,
    reservation_count_pmf,
)


class TestReservationCountPmf:
    def test_uniform_single_reservation(self):
        pmf = reservation_count_pmf([20.0], Uniform(10.0, 20.0))
        np.testing.assert_allclose(pmf, [1.0])

    def test_uniform_two_reservations(self):
        pmf = reservation_count_pmf([15.0, 20.0], Uniform(10.0, 20.0))
        np.testing.assert_allclose(pmf, [0.5, 0.5])

    def test_exponential_geometric_counts(self):
        """For t_i = i (Exp(1)): P(K=k) = e^{-(k-1)} - e^{-k}."""
        seq = ReservationSequence([1.0], extend=constant_extender(1.0))
        pmf = reservation_count_pmf(seq, Exponential(1.0))
        for k in range(1, 6):
            want = math.exp(-(k - 1)) - math.exp(-k)
            assert pmf[k - 1] == pytest.approx(want, rel=1e-6)

    def test_sums_to_one(self):
        seq = ReservationSequence([25.0], extend=lambda v: float(v[-1]) * 1.5)
        pmf = reservation_count_pmf(seq, LogNormal(3.0, 0.5))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestCostStatistics:
    def test_mean_matches_series_evaluator(self):
        from repro import expected_cost_series

        d = LogNormal(3.0, 0.5)
        cm = CostModel(alpha=1.0, beta=0.5, gamma=0.2)
        seq_values = [25.0, 45.0, 90.0, 200.0, 500.0]
        stats = cost_statistics(
            ReservationSequence(seq_values, extend=lambda v: float(v[-1]) * 2),
            d, cm, n_samples=2000, seed=0,
        )
        exact = expected_cost_series(
            ReservationSequence(seq_values, extend=lambda v: float(v[-1]) * 2),
            d, cm,
        )
        assert stats.mean == pytest.approx(exact, rel=1e-6)

    def test_variance_against_monte_carlo(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()

        def fresh():
            return ReservationSequence([1.0], extend=constant_extender(1.0))

        stats = cost_statistics(fresh(), d, cm, n_samples=1000, seed=1)
        from repro.simulation.monte_carlo import costs_for_times

        samples = d.rvs(200_000, seed=2)
        costs = costs_for_times(fresh(), samples, cm)
        assert stats.variance == pytest.approx(float(costs.var()), rel=0.05)

    def test_deterministic_cost_zero_variance(self):
        """Single reservation + beta=0: every job costs exactly alpha*b."""
        d = Uniform(10.0, 20.0)
        cm = CostModel.reservation_only()
        stats = cost_statistics([20.0], d, cm, n_samples=500, seed=3)
        assert stats.mean == pytest.approx(20.0)
        assert stats.variance == pytest.approx(0.0, abs=1e-9)
        assert stats.std == 0.0
        assert stats.cost_p50 == pytest.approx(20.0)
        assert stats.cost_p99 == pytest.approx(20.0)

    def test_expected_reservations(self):
        d = Uniform(10.0, 20.0)
        stats = cost_statistics(
            [15.0, 20.0], d, CostModel.reservation_only(), n_samples=100, seed=4
        )
        assert stats.expected_reservations == pytest.approx(1.5)

    def test_quantiles_ordered(self):
        d = LogNormal(3.0, 0.5)
        cm = CostModel.neurohpc()
        seq = ReservationSequence([25.0], extend=lambda v: float(v[-1]) * 1.6)
        stats = cost_statistics(seq, d, cm, n_samples=4000, seed=5)
        assert stats.cost_p50 <= stats.cost_p95 <= stats.cost_p99
        assert stats.coefficient_of_variation > 0

    def test_risk_comparison_use_case(self):
        """A finer sequence trades a higher reservation count for lower
        tail cost — the risk view this module exists for."""
        d = LogNormal(3.0, 0.5)
        cm = CostModel.reservation_only()
        coarse = cost_statistics(
            ReservationSequence([float(d.quantile(1 - 1e-13))]), d, cm,
            n_samples=4000, seed=6,
        )
        from repro import EqualProbabilityDP

        fine_seq = EqualProbabilityDP(n=300).sequence(d, cm)
        fine = cost_statistics(fine_seq, d, cm, n_samples=4000, seed=6)
        assert fine.expected_reservations > coarse.expected_reservations
        assert fine.mean < coarse.mean
