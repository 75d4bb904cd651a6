"""Planner degradation ladder: bit-compatibility, fallbacks, breaker arc."""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.registry import make_distribution
from repro.resilience import faults
from repro.resilience.breaker import OPEN
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service.planner import PlannerService, ResilienceOptions
from repro.service.pool import ProcessBackend, ThreadBackend
from repro.simulation.monte_carlo import monte_carlo_expected_cost

REQUEST = {
    "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
    "strategy": "mean_by_mean",
    "n_samples": 400,
    "seed": 5,
}


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


def chaos_options(**overrides):
    """Options tuned so drills fail fast instead of sleeping through retries."""
    defaults = dict(
        mc_task_timeout_s=2.0,
        mc_task_retries=0,
        breaker_failure_threshold=1,
        breaker_recovery_s=60.0,
    )
    defaults.update(overrides)
    return ResilienceOptions(**defaults)


class TestBitCompatibility:
    def test_serial_no_fault_plan_matches_raw_kernel(self, registry):
        """The resilience-enabled default must not perturb the numbers: the
        first rung reproduces the exact historical serial MC evaluation."""
        service = PlannerService()  # resilience on, serial backend
        response = service.plan(REQUEST)
        assert response["degraded"] is False
        assert response["evaluator"] == "mc"

        distribution = make_distribution("lognormal", mu=3.0, sigma=0.5)
        cost_model = CostModel(alpha=1.0, beta=0.0, gamma=0.0)
        sequence = ReservationSequence(
            response["plan"]["reservations"],
            extend=lambda values: float(values[-1]) * 2.0,
        )
        mc = monte_carlo_expected_cost(
            sequence, distribution, cost_model, n_samples=400, seed=5
        )
        assert response["statistics"]["expected_cost"] == mc.mean_cost
        assert response["statistics"]["std_error"] == mc.std_error

    def test_evaluate_matches_raw_kernel_without_faults(self, registry):
        """/evaluate's first rung is the same bare kernel call, on the
        cached reservations with the doubling tail."""
        service = PlannerService()
        request = {**REQUEST, "n_samples": 600, "seed": 9}
        response = service.evaluate(request)
        assert response["degraded"] is False
        assert response["evaluator"] == "mc"

        plan = service.plan(request)
        sequence = ReservationSequence(
            plan["plan"]["reservations"],
            extend=lambda values: float(values[-1]) * 2.0,
        )
        mc = monte_carlo_expected_cost(
            sequence,
            make_distribution("lognormal", mu=3.0, sigma=0.5),
            CostModel(alpha=1.0, beta=0.0, gamma=0.0),
            n_samples=600,
            seed=9,
        )
        assert response["evaluation"]["expected_cost"] == mc.mean_cost
        assert response["evaluation"]["std_error"] == mc.std_error


class TestPooledPlans:
    def test_process_pool_plans_bounded_law_undegraded(self):
        """An extender converging toward a finite upper bound never reaches
        it; the pooled pre-extension must not demand the bound, or the
        process pool's first rung fails and the plan is served degraded."""
        request = {
            "distribution": {
                "law": "bounded_pareto",
                "params": {"low": 1.0, "high": 20.0, "alpha": 2.1},
            },
            "strategy": "median_by_median",
            "n_samples": 5000,
            "seed": 0,
        }
        with ProcessBackend(2) as backend:
            process = PlannerService(backend=backend).plan(request)
        with ThreadBackend(2) as backend:
            thread = PlannerService(backend=backend).plan(request)
        assert process["degraded"] is False
        assert process["evaluator"] == "mc"
        assert process["statistics"] == thread["statistics"]


class TestDegradation:
    def test_worker_faults_degrade_to_serial_mc(self, registry):
        plan = FaultPlan([FaultRule(site="pool.worker", mode="error")])
        with ThreadBackend(2) as backend:
            service = PlannerService(backend=backend, resilience=chaos_options())
            with faults.installed(plan):
                response = service.plan({**REQUEST, "n_samples": 2000})
        assert response["degraded"] is True
        assert response["evaluator"] == "mc_serial_reduced"
        outcomes = {a["evaluator"]: a["outcome"] for a in response["attempts"]}
        assert outcomes == {"mc": "error", "mc_serial_reduced": "ok"}
        # Reduced fidelity is bounded: max(min_samples, fraction * 2000).
        assert response["statistics"]["n_samples"] == 500

    def test_degraded_answer_is_close_to_truth(self, registry):
        plan = FaultPlan([FaultRule(site="pool.worker", mode="error")])
        truth = PlannerService().plan(REQUEST)["statistics"]["expected_cost"]
        with ThreadBackend(2) as backend:
            service = PlannerService(backend=backend, resilience=chaos_options())
            with faults.installed(plan):
                degraded = service.plan(REQUEST)["statistics"]["expected_cost"]
        assert degraded == pytest.approx(truth, rel=0.2)

    def test_expired_deadline_falls_back_to_series(self, registry):
        service = PlannerService(
            resilience=chaos_options(request_deadline_s=0.0)
        )
        response = service.evaluate(REQUEST)
        assert response["degraded"] is True
        assert response["evaluator"] == "series"
        assert response["evaluation"]["std_error"] is None
        assert response["evaluation"]["ci95"] is None
        assert response["evaluation"]["expected_cost"] > 0

    def test_cached_payload_keeps_its_original_stamp(self, registry):
        service = PlannerService()
        first = service.plan(REQUEST)
        second = service.plan(REQUEST)
        assert first["cached"] is False and second["cached"] is True
        assert second["degraded"] is False
        assert second["evaluator"] == "mc"


class TestBreakerIntegration:
    def test_breaker_opens_and_rejects_without_running_backend(self, registry):
        plan = FaultPlan([FaultRule(site="pool.worker", mode="error")])
        with ThreadBackend(2) as backend:
            service = PlannerService(backend=backend, resilience=chaos_options())
            with faults.installed(plan):
                service.evaluate(REQUEST)
            assert service.breaker.state == OPEN
            # Faults are gone, but the breaker still short-circuits rung 1
            # (recovery_s=60 with no clock advance): CircuitOpen -> fallback.
            response = service.evaluate({**REQUEST, "seed": 6})
        assert response["degraded"] is True
        attempts = {a["evaluator"]: a for a in response["attempts"]}
        assert "CircuitOpen" in attempts["mc"]["error"]
        stats = service.breaker.stats()
        assert stats["opened"] == 1
        # One rejection per short-circuited evaluate ladder: the faulted
        # request's own evaluation plus the follow-up request.
        assert stats["rejections"] == 2

    def test_health_and_metrics_expose_resilience(self, registry):
        service = PlannerService()
        health = service.health()
        assert health["resilience"]["breaker"]["state"] == "closed"
        assert service.metrics_payload()["breaker"]["name"] == "mc-backend"
