"""Tests for the discretization + DP strategies (Section 4.2)."""

import pytest

from repro import (
    CostModel,
    EqualProbabilityDP,
    EqualTimeDP,
    Exponential,
    LogNormal,
    Uniform,
    evaluate_strategy,
)
from repro.strategies.discretized_dp import DiscretizedDP


class TestConstruction:
    def test_names(self):
        assert EqualTimeDP().name == "equal_time_dp"
        assert EqualProbabilityDP().name == "equal_probability_dp"

    def test_bad_n(self):
        with pytest.raises(ValueError):
            DiscretizedDP("equal_time", n=0)

    def test_unknown_scheme_surfaces(self):
        s = DiscretizedDP("bogus", n=10)
        with pytest.raises(KeyError):
            s.sequence(Exponential(1.0), CostModel.reservation_only())


class TestBoundedSupport:
    def test_uniform_recovers_theorem4(self):
        """On Uniform the DP must find the singleton (b) (up to grid)."""
        seq = EqualTimeDP(n=100).sequence(Uniform(10.0, 20.0), CostModel.reservation_only())
        assert list(seq.values) == [20.0]
        assert not seq.is_extensible

    def test_sequence_ends_at_b(self, bounded_distribution):
        seq = EqualProbabilityDP(n=50).sequence(
            bounded_distribution, CostModel.reservation_only()
        )
        assert seq.last == pytest.approx(bounded_distribution.upper, rel=1e-9)


class TestUnboundedSupport:
    def test_sequence_extensible_past_b(self):
        d = Exponential(1.0)
        seq = EqualTimeDP(n=50, epsilon=1e-4).sequence(d, CostModel.reservation_only())
        b = float(d.quantile(1 - 1e-4))
        assert seq.last <= b + 1e-9
        assert seq.is_extensible
        seq.ensure_covers(b * 2)
        assert seq.last >= b * 2

    def test_tail_extension_is_mean_by_mean(self):
        d = Exponential(1.0)
        seq = EqualTimeDP(n=20, epsilon=1e-3).sequence(d, CostModel.reservation_only())
        last = seq.last
        nxt = seq.extend_once()
        assert nxt == pytest.approx(d.conditional_expectation(last))


class TestQuality:
    def test_close_to_known_optimum_exponential(self):
        """DP at n=1000 lands near the true optimum E_1 ~ 2.3645 (series)."""
        from repro import expected_cost_series

        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        seq = EqualProbabilityDP(n=1000).sequence(d, cm)
        cost = expected_cost_series(seq, d, cm)
        assert cost == pytest.approx(2.3645, abs=0.08)

    def test_more_points_no_worse(self):
        """Normalized cost at n=500 <= cost at n=10 + noise margin (Table 4)."""
        d = LogNormal(3.0, 0.5)
        cm = CostModel.reservation_only()
        small = evaluate_strategy(
            EqualProbabilityDP(n=10), d, cm, method="series"
        ).normalized_cost
        large = evaluate_strategy(
            EqualProbabilityDP(n=500), d, cm, method="series"
        ).normalized_cost
        assert large <= small + 1e-6

    def test_monte_carlo_evaluation_works(self):
        d = LogNormal(3.0, 0.5)
        record = evaluate_strategy(
            EqualTimeDP(n=100),
            d,
            CostModel.reservation_only(),
            method="monte_carlo",
            n_samples=500,
            seed=3,
        )
        assert record.normalized_cost >= 1.0
        assert record.strategy == "equal_time_dp"
