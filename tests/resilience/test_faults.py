"""Fault-injection harness: rules, plans, specs, activation, determinism."""

from __future__ import annotations

import json

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule, InjectedFault


def error_rule(site="pool.worker", **kwargs):
    return FaultRule(site=site, mode="error", **kwargs)


class TestFaultRule:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultRule(site="pool.worker", mode="explode")

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(site="pool.worker", mode="error", rate=1.5)

    def test_max_triggers_validation(self):
        with pytest.raises(ValueError, match="max_triggers"):
            FaultRule(site="pool.worker", mode="error", max_triggers=0)

    def test_default_seconds_per_mode(self):
        assert FaultRule(site="pool.worker", mode="error").seconds == 0.0
        assert FaultRule(site="pool.worker", mode="hang").seconds == 30.0
        assert FaultRule(site="pool.worker", mode="delay").seconds == 0.05

    def test_exact_and_prefix_matching(self):
        exact = error_rule("shard.journal.append")
        assert exact.matches("shard.journal.append")
        assert not exact.matches("shard.compact")
        family = error_rule("shard.*")
        assert family.matches("shard.journal.append")
        assert family.matches("shard.compact")
        assert not family.matches("pool.worker")


class TestFaultPlan:
    def test_strict_sites_rejects_typos(self):
        with pytest.raises(ValueError, match="unknown site"):
            FaultPlan([error_rule("pool.wroker")])

    def test_strict_sites_accepts_families(self):
        FaultPlan([error_rule("shard.*")])  # must not raise

    def test_strict_sites_rejects_retired_snapshot_site(self):
        # The JSON snapshot path is gone; a stale chaos spec naming its
        # write site must fail loudly instead of injecting nothing.
        with pytest.raises(ValueError, match="unknown site"):
            FaultPlan([error_rule("plancache.save")])

    def test_error_mode_raises_injected_fault(self):
        plan = FaultPlan([error_rule()])
        with pytest.raises(InjectedFault) as err:
            plan.fire("pool.worker")
        assert err.value.site == "pool.worker"

    def test_non_matching_site_is_untouched(self):
        plan = FaultPlan([error_rule()])
        plan.fire("mc.chunk")  # no matching rule: must not raise

    def test_max_triggers_budget(self):
        plan = FaultPlan([error_rule(max_triggers=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("pool.worker")
        plan.fire("pool.worker")  # budget exhausted: fires clean
        assert plan.stats()["total_triggered"] == 2

    def test_hang_and_delay_use_injected_sleep(self):
        slept = []
        plan = FaultPlan(
            [
                FaultRule(site="pool.worker", mode="hang", seconds=12.0),
                FaultRule(site="mc.chunk", mode="delay", seconds=0.5),
            ],
            sleep=slept.append,
        )
        plan.fire("pool.worker")
        plan.fire("mc.chunk")
        assert slept == [12.0, 0.5]

    def test_rate_is_seed_deterministic(self):
        def outcomes(seed):
            plan = FaultPlan([error_rule(rate=0.5)], seed=seed)
            hits = []
            for _ in range(32):
                try:
                    plan.fire("pool.worker")
                    hits.append(0)
                except InjectedFault:
                    hits.append(1)
            return hits

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)
        assert 0 < sum(outcomes(7)) < 32  # actually probabilistic

    def test_metrics_counted(self, enabled_obs):
        reg, _ = enabled_obs
        plan = FaultPlan([error_rule()])
        with pytest.raises(InjectedFault):
            plan.fire("pool.worker")
        counters = reg.to_dict()["counters"]
        assert counters["resilience.faults_injected"] == 1
        assert counters["resilience.fault.pool.worker"] == 1


class TestSpecParsing:
    def test_compact_spec(self):
        plan = FaultPlan.from_spec(
            "seed=7;pool.worker:error:0.3;mc.chunk:hang:1:seconds=12,max=1"
        )
        assert plan.seed == 7
        worker, chunk = plan.rules
        assert (worker.site, worker.mode, worker.rate) == ("pool.worker", "error", 0.3)
        assert (chunk.mode, chunk.seconds, chunk.max_triggers) == ("hang", 12.0, 1)

    def test_inline_json_spec(self):
        plan = FaultPlan.from_spec(
            json.dumps({"seed": 3, "faults": [{"site": "pool.worker"}]})
        )
        assert plan.seed == 3
        assert plan.rules[0].mode == "error"  # JSON default

    def test_file_spec(self, tmp_path):
        path = tmp_path / "drill.json"
        path.write_text(json.dumps({"faults": [{"site": "mc.chunk", "mode": "delay"}]}))
        plan = FaultPlan.from_spec(str(path))
        assert plan.rules[0].site == "mc.chunk"

    def test_bad_segment_rejected(self):
        with pytest.raises(ValueError, match="bad fault segment"):
            FaultPlan.from_spec("pool.worker")
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.from_spec("pool.worker:error:1:bogus=1")
        with pytest.raises(ValueError, match="empty"):
            FaultPlan.from_spec("   ")


class TestActivation:
    def test_no_plan_is_a_noop(self):
        faults.fire("pool.worker")  # nothing installed in the test process

    def test_installed_context_manager_restores(self):
        plan = FaultPlan([error_rule()])
        with faults.installed(plan):
            assert faults.get_plan() is plan
            with pytest.raises(InjectedFault):
                faults.fire("pool.worker")
        assert faults.get_plan() is not plan
        faults.fire("pool.worker")  # deactivated again

    def test_install_uninstall(self):
        plan = faults.install(FaultPlan([error_rule("mc.chunk")]))
        try:
            assert faults.get_plan() is plan
        finally:
            faults.uninstall()
        assert faults.get_plan() is None

    def test_env_bootstrap(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pool.worker:error:1")
        faults.reset_env_cache()
        try:
            with pytest.raises(InjectedFault):
                faults.fire("pool.worker")
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset_env_cache()

    def test_explicit_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "pool.worker:error:1")
        faults.reset_env_cache()
        try:
            with faults.installed(FaultPlan([error_rule("mc.chunk")])):
                faults.fire("pool.worker")  # env rule must NOT be active
                with pytest.raises(InjectedFault):
                    faults.fire("mc.chunk")
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset_env_cache()


class TestCallSiteHelpers:
    def test_injection_point_decorator(self):
        @faults.injection_point("tests.decorated")
        def work(x):
            return x + 1

        assert work.__fault_site__ == "tests.decorated"
        assert work(1) == 2
        with faults.installed(FaultPlan([error_rule("tests.decorated")])):
            with pytest.raises(InjectedFault):
                work(1)

    def test_fault_point_context_manager(self):
        with faults.fault_point("tests.block"):
            pass
        with faults.installed(FaultPlan([error_rule("tests.block")])):
            with pytest.raises(InjectedFault):
                with faults.fault_point("tests.block"):
                    pass

    def test_registry_documents_builtin_sites(self):
        sites = faults.known_sites()
        for site in ("pool.worker", "mc.chunk", "server.request",
                     "shard.journal.append", "shard.compact", "shard.rpc"):
            assert site in sites
