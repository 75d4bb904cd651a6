"""Tests for the evaluation harness (Section 5.1 methodology)."""

import pytest

from repro import (
    CostModel,
    Exponential,
    LogNormal,
    MeanByMean,
    MeanDoubling,
    Uniform,
    evaluate_strategy,
)
from repro.simulation.evaluator import evaluate_on_samples
from repro.simulation.results import EvaluationRecord, SweepPoint


class TestEvaluateStrategy:
    def test_monte_carlo_record(self):
        rec = evaluate_strategy(
            MeanByMean(),
            LogNormal(3.0, 0.5),
            CostModel.reservation_only(),
            n_samples=300,
            seed=0,
        )
        assert rec.strategy == "mean_by_mean"
        assert rec.distribution == "lognormal"
        assert rec.method == "monte_carlo"
        assert rec.n_samples == 300
        assert rec.normalized_cost == pytest.approx(
            rec.expected_cost / rec.omniscient_cost
        )
        assert rec.normalized_cost > 1.0

    def test_series_record(self):
        rec = evaluate_strategy(
            MeanByMean(), Exponential(1.0), CostModel.reservation_only(),
            method="series",
        )
        assert rec.method == "series"
        assert rec.n_samples is None
        assert rec.std_error is None
        # Exact value: sum_{i>=1} i e^{-(i-1)} = e^2 (e-1)^{-2} ... known ~2.5027
        assert rec.expected_cost == pytest.approx(2.5027, abs=1e-3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown evaluation method"):
            evaluate_strategy(
                MeanByMean(), Exponential(1.0), CostModel(), method="exactish"
            )


class TestEvaluateOnSamples:
    def test_common_random_numbers_ordering(self):
        """On shared samples, a strictly dominated strategy never wins."""
        d = Uniform(10.0, 20.0)
        cm = CostModel.reservation_only()
        samples = d.rvs(500, seed=1)
        single = evaluate_on_samples(
            MeanDoubling().sequence(d, cm), d, cm, samples
        )
        # Theorem 4 optimum on the same samples:
        from repro import uniform_optimal_sequence

        optimal = evaluate_on_samples(uniform_optimal_sequence(d), d, cm, samples)
        assert optimal.expected_cost <= single.expected_cost

    def test_matches_manual_mean(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        samples = d.rvs(100, seed=2)
        seq = MeanByMean().sequence(d, cm)
        rec = evaluate_on_samples(seq, d, cm, samples, strategy_name="mbm")
        from repro.simulation.monte_carlo import costs_for_times

        seq2 = MeanByMean().sequence(d, cm)
        manual = float(costs_for_times(seq2, samples, cm).mean())
        assert rec.expected_cost == pytest.approx(manual)
        assert rec.strategy == "mbm"


class TestRecords:
    def test_normalized_vs(self):
        a = EvaluationRecord("a", "d", 2.0, 1.0, 2.0, "series")
        b = EvaluationRecord("b", "d", 4.0, 1.0, 4.0, "series")
        assert b.normalized_vs(a) == pytest.approx(2.0)

    def test_normalized_vs_zero_raises(self):
        a = EvaluationRecord("a", "d", 2.0, 1.0, 2.0, "series")
        z = EvaluationRecord("z", "d", 0.0, 1.0, 0.0, "series")
        with pytest.raises(ValueError):
            a.normalized_vs(z)

    def test_sweep_point_feasibility(self):
        assert SweepPoint(x=1.0, normalized_cost=2.0).feasible
        assert not SweepPoint(x=1.0, normalized_cost=None).feasible
