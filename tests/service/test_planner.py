"""PlannerService: request validation, cache behavior, payload shape."""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.distributions.registry import PAPER_ORDER, paper_distribution
from repro.service.plancache import PlanCache
from repro.service.planner import (
    PAYLOAD_VERSION,
    PlannerService,
    ServiceError,
)
from repro.strategies.registry import PAPER_STRATEGY_ORDER

REQUEST = {
    "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
    "cost_model": {"alpha": 1.0, "beta": 0.0, "gamma": 0.0},
    "strategy": "mean_by_mean",
    "n_samples": 400,
    "seed": 0,
}


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


@pytest.fixture()
def service(registry):
    return PlannerService(cache=PlanCache(maxsize=8), n_samples=400, seed=0)


class TestPlan:
    def test_payload_shape(self, service):
        resp = service.plan(REQUEST)
        assert resp["version"] == PAYLOAD_VERSION
        assert len(resp["key"]) == 64
        plan = resp["plan"]
        assert plan["strategy"] == "mean_by_mean"
        assert plan["distribution"]["law"] == "lognormal"
        values = plan["reservations"]
        assert values == sorted(values) and len(values) >= 1
        stats = resp["statistics"]
        assert stats["expected_cost"] > 0
        assert stats["normalized_cost"] >= 1.0  # never beats clairvoyant
        assert stats["n_samples"] == 400

    def test_second_identical_request_hits_cache(self, service, registry):
        first = service.plan(REQUEST)
        second = service.plan(REQUEST)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["key"] == second["key"]
        assert first["plan"] == second["plan"]
        assert int(registry.counter("plancache.hits").value) == 1
        # The strategy ran exactly once: the cached response skipped the DP.
        assert int(registry.counter("service.plan_requests").value) == 2

    def test_key_ignores_sampling_settings(self, service):
        """n_samples/seed are evaluation knobs, not plan identity."""
        first = service.plan(REQUEST)
        tweaked = dict(REQUEST, n_samples=500, seed=9)
        second = service.plan(tweaked)
        assert second["cached"] is True
        assert second["key"] == first["key"]

    def test_distinct_requests_miss(self, service):
        service.plan(REQUEST)
        other = dict(
            REQUEST,
            distribution={"law": "lognormal", "params": {"mu": 3.1, "sigma": 0.5}},
        )
        assert service.plan(other)["cached"] is False

    def test_defaults_are_applied(self, service):
        resp = service.plan(
            {"distribution": {"law": "exponential", "params": {"rate": 1.0}}}
        )
        assert resp["plan"]["strategy"] == "mean_by_mean"
        assert resp["plan"]["coverage"] == pytest.approx(0.999)


@pytest.mark.parametrize("law", PAPER_ORDER)
@pytest.mark.parametrize("strategy", PAPER_STRATEGY_ORDER)
def test_plan_without_seed_knob_is_a_function_of_its_key(strategy, law):
    """Two fresh planners (say, two shards, or one before and after a
    restart) return one plan per key, whatever evaluation seed is asked."""
    knobs = {"m_grid": 1000} if strategy == "brute_force" else {}
    request = {
        "distribution": {"law": law, "params": paper_distribution(law).params()},
        "strategy": {"name": strategy, "knobs": knobs},
        "n_samples": 200,
    }
    first, second = [
        PlannerService(cache=PlanCache(maxsize=1)).plan(dict(request, seed=seed))
        for seed in (0, 1)
    ]
    assert first["key"] == second["key"]
    assert first["plan"] == second["plan"]


class TestValidation:
    @pytest.mark.parametrize(
        "request_, match",
        [
            ({}, "missing 'distribution'"),
            ({"distribution": {}}, "'law'"),
            ({"distribution": {"law": "cauchy"}}, "unknown distribution"),
            (
                {"distribution": {"law": "lognormal", "params": {"mu": "x"}}},
                "bad distribution parameters",
            ),
            (
                dict(REQUEST, strategy="does_not_exist"),
                "unknown strategy",
            ),
            (dict(REQUEST, coverage=1.5), "coverage"),
            (dict(REQUEST, n_samples=0), "n_samples"),
            (dict(REQUEST, n_samples=10**9), "n_samples"),
            # The brute-force `batch` knob is gone: the scan is always batched.
            (
                dict(REQUEST, strategy={"name": "brute_force",
                                        "knobs": {"batch": False}}),
                "bad strategy knobs",
            ),
            # No knob may pick a pool: a request must not fork processes.
            (
                dict(REQUEST, strategy={"name": "brute_force",
                                        "knobs": {"backend": "process"}}),
                "bad strategy knobs",
            ),
        ],
    )
    def test_bad_requests_raise_service_error(self, service, request_, match):
        with pytest.raises(ServiceError, match=match):
            service.plan(request_)

    def test_service_error_status_defaults_to_400(self):
        assert ServiceError("nope").status == 400
        assert ServiceError("big", status=413).status == 413


class TestEvaluate:
    def test_reuses_cached_plan(self, service, registry):
        service.plan(REQUEST)
        resp = service.evaluate(dict(REQUEST, n_samples=600, seed=3))
        assert resp["cached"] is True
        ev = resp["evaluation"]
        assert ev["n_samples"] == 600 and ev["seed"] == 3
        lo, hi = ev["ci95"]
        assert lo <= ev["expected_cost"] <= hi
        assert ev["normalized_cost"] >= 1.0

    def test_cold_evaluate_plans_first(self, service):
        resp = service.evaluate(REQUEST)
        assert resp["cached"] is False
        assert "evaluation" in resp

    def test_evaluation_consistent_with_plan_statistics(self, service):
        """Same seed and sample count: evaluate of the same artifact should
        land within a few standard errors of the planning-time estimate."""
        plan = service.plan(REQUEST)
        ev = service.evaluate(REQUEST)["evaluation"]
        stats = plan["statistics"]
        tol = 4.0 * (stats["std_error"] + ev["std_error"]) + 1e-9
        assert abs(ev["expected_cost"] - stats["expected_cost"]) <= tol


class TestIntrospection:
    def test_health_payload(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["backend"] == "serial"
        assert health["cache"]["maxsize"] == 8

    def test_uptime_survives_wall_clock_step_backwards(self, service, monkeypatch):
        """uptime_s comes from the monotonic clock: an NTP step that moves
        time.time() backwards must not yield negative (or shrunken) uptime,
        while computed_at stays wall-clock epoch."""
        import time as _time

        real_time = _time.time
        monkeypatch.setattr(
            "repro.service.planner.time.time", lambda: real_time() - 3600.0
        )
        health = service.health()
        assert health["uptime_s"] >= 0.0
        assert service.metrics_payload()["uptime_s"] >= 0.0
        # computed_at deliberately stays wall-clock (it is a display field).
        plan = service.plan(REQUEST)
        assert plan["computed_at"] == pytest.approx(real_time() - 3600.0, abs=30.0)

    def test_uptime_advances_with_monotonic_clock(self, service, monkeypatch):
        base = service._started_monotonic
        monkeypatch.setattr(
            "repro.service.planner.time.monotonic", lambda: base + 12.5
        )
        assert service.uptime_s() == pytest.approx(12.5)

    def test_metrics_payload_exposes_cache_counters(self, service):
        service.plan(REQUEST)
        service.plan(REQUEST)
        payload = service.metrics_payload()
        counters = payload["metrics"]["counters"]
        assert counters["plancache.hits"] == 1
        assert counters["plancache.misses"] >= 1
        assert payload["cache"]["size"] == 1
