"""Tests for the tier-aware strategies (reserve vs spot vs mixed)."""

import math

import pytest

from repro import CostModel
from repro.distributions.lognormal import lognormal_from_moments
from repro.platforms.spot import (
    ConstantHazard,
    ConstantPrice,
    SpotScenario,
    expected_spot_busy_time,
    optimal_checkpoint_interval,
)
from repro.simulation.evaluator import evaluate_strategy
from repro.strategies import (
    ReserveOnly,
    SpotOnly,
    SpotThenReserve,
    TierPlan,
    choose_tier,
    tier_lineup,
)
from repro.strategies.registry import make_strategy

PRICE = 0.3


def _scenario(rate, overhead=0.05):
    return SpotScenario(
        price=ConstantPrice(PRICE),
        hazard=ConstantHazard(rate),
        checkpoint_overhead=overhead,
        step=0.05,
    )


@pytest.fixture(scope="module")
def inner():
    return make_strategy("mean_by_mean")


@pytest.fixture(scope="module")
def cost_model():
    return CostModel.reservation_only()


@pytest.fixture(scope="module")
def short_jobs():
    return lognormal_from_moments(1.0, 0.4)


class TestReserveOnly:
    def test_matches_series_evaluator(self, inner, cost_model, short_jobs):
        plan = ReserveOnly(inner).plan(short_jobs, cost_model, _scenario(0.5))
        series = evaluate_strategy(
            inner, short_jobs, cost_model, method="series"
        ).expected_cost
        assert isinstance(plan, TierPlan)
        assert plan.tier == "reserved"
        assert plan.spot_work_cap == 0.0
        assert plan.checkpoint_interval is None
        assert plan.expected_cost == pytest.approx(float(series))
        assert len(plan.reserved_preview) > 0


class TestSpotOnly:
    def test_restart_cost(self, inner, cost_model, short_jobs):
        rate = 0.5
        plan = SpotOnly(checkpointed=False).plan(
            short_jobs, cost_model, _scenario(rate)
        )
        assert plan.tier == "spot"
        assert plan.spot_work_cap == math.inf
        assert plan.checkpoint_interval is None
        assert plan.expected_cost == pytest.approx(
            PRICE * expected_spot_busy_time(short_jobs, rate)
        )

    def test_checkpointed_uses_the_optimal_interval(
        self, inner, cost_model, short_jobs
    ):
        rate, overhead = 0.8, 0.05
        plan = SpotOnly(checkpointed=True).plan(
            short_jobs, cost_model, _scenario(rate, overhead)
        )
        tau = optimal_checkpoint_interval(rate, overhead)
        assert plan.checkpoint_interval == pytest.approx(tau)
        assert plan.expected_cost == pytest.approx(
            PRICE
            * expected_spot_busy_time(
                short_jobs,
                rate,
                checkpoint_interval=tau,
                checkpoint_overhead=overhead,
            )
        )

    def test_zero_rate_falls_back_to_restart(self, cost_model, short_jobs):
        plan = SpotOnly(checkpointed=True).plan(
            short_jobs, cost_model, _scenario(0.0)
        )
        assert plan.checkpoint_interval is None
        assert plan.expected_cost == pytest.approx(
            PRICE * short_jobs.mean(), rel=1e-6
        )


class TestSpotThenReserve:
    def test_validation(self, inner):
        with pytest.raises(ValueError):
            SpotThenReserve(inner, max_segments=0)

    def test_never_worse_than_its_endpoints(self, inner, cost_model):
        d = lognormal_from_moments(6.0, 4.0)
        scenario = _scenario(0.8, 0.2)
        mixed = SpotThenReserve(inner, max_segments=8).plan(
            d, cost_model, scenario
        )
        reserve = ReserveOnly(inner).plan(d, cost_model, scenario)
        spot = SpotOnly(checkpointed=True).plan(d, cost_model, scenario)
        assert mixed.expected_cost <= reserve.expected_cost + 1e-12
        assert mixed.expected_cost <= spot.expected_cost + 1e-12
        assert mixed.strategy.startswith("spot_then_reserve")

    def test_mixed_plan_shape(self, inner, cost_model):
        # A heavy-tailed mid-scale law in a risky market is the regime the
        # cap sweep exists for; whatever wins must be internally consistent.
        d = lognormal_from_moments(6.0, 6.0)
        plan = SpotThenReserve(inner, max_segments=10).plan(
            d, cost_model, _scenario(1.2, 0.3)
        )
        if plan.tier == "mixed":
            assert 0.0 < plan.spot_work_cap < math.inf
            assert plan.checkpoint_interval is not None
            assert "segments" in plan.detail
            assert len(plan.reserved_preview) > 0
        else:
            assert plan.detail.startswith("degenerated to")


class TestChooseTier:
    def test_lineup_contents(self, inner):
        lineup = tier_lineup(inner)
        names = [s.name for s in lineup]
        assert len(lineup) == 4
        assert "spot_restart" in names and "spot_checkpoint" in names

    def test_picks_the_cheapest(self, inner, cost_model, short_jobs):
        scenario = _scenario(0.5)
        best = choose_tier(short_jobs, cost_model, scenario, inner=inner)
        costs = [
            s.plan(short_jobs, cost_model, scenario).expected_cost
            for s in tier_lineup(inner)
        ]
        assert best.expected_cost == pytest.approx(min(costs))

    def test_short_cheap_jobs_go_spot(self, inner, cost_model):
        d = lognormal_from_moments(0.5, 0.2)
        best = choose_tier(d, cost_model, _scenario(0.1), inner=inner)
        assert best.tier in ("spot", "mixed")
        # Spot at 0.3/h with mild interruptions undercuts on-demand at 1.0/h.
        reserved = ReserveOnly(inner).plan(d, cost_model, _scenario(0.1))
        assert best.expected_cost < reserved.expected_cost

    def test_hostile_market_goes_reserved(self, inner, cost_model):
        # High hazard + expensive checkpoints: spot per-work inflation dwarfs
        # the price discount, so the paper's reservation plan wins outright.
        d = lognormal_from_moments(5.0, 2.0)
        best = choose_tier(d, cost_model, _scenario(3.0, 0.5), inner=inner)
        assert best.tier == "reserved"
        assert best.spot_work_cap == 0.0

    def test_default_inner(self, cost_model, short_jobs):
        best = choose_tier(short_jobs, cost_model, _scenario(0.5))
        assert isinstance(best, TierPlan)
