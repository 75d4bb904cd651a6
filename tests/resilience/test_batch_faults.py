"""Seed-determinism matrix and ``mc.chunk`` chaos drills for the batched
Monte-Carlo backends.

The batch rework moved sampling *into* process-pool workers
(``_sample_and_cost_chunk``), so three properties need guarding here:

* a fixed ``(seed, jobs, backend)`` triple reproduces bit-identically on
  every backend kind, and thread/process agree with each other;
* an ``mc.chunk`` fault injected inside a *process* worker travels back to
  the driver as the real :class:`InjectedFault` (pickle roundtrip via
  ``__reduce__``), both through ``faults.installed`` (fork inheritance)
  and through the ``REPRO_FAULTS`` environment (the documented child
  path);
* the planner's degradation ladder still catches the faulted rung and
  lands on a serial fallback when the configured backend is a process
  pool.
"""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.lognormal import LogNormal
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule, InjectedFault
from repro.service.planner import PlannerService, ResilienceOptions
from repro.service.pool import PoolError, ProcessBackend, ThreadBackend
from repro.simulation.batch import monte_carlo_many
from repro.simulation.monte_carlo import monte_carlo_expected_cost


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


@pytest.fixture()
def clean_fault_env(monkeypatch):
    """Yield ``monkeypatch`` with the fault-plan env cache reset around it."""
    faults.reset_env_cache()
    yield monkeypatch
    faults.reset_env_cache()


def make_distribution():
    return LogNormal(3.0, 0.5)


def make_sequence(distribution):
    return ReservationSequence(
        [float(distribution.quantile(0.5))],
        extend=lambda values: float(values[-1]) * 2.0,
    )


def estimate(kind, jobs, seed=11, n_samples=300):
    d = make_distribution()
    cm = CostModel(alpha=1.0, beta=0.25, gamma=0.05)
    return monte_carlo_expected_cost(
        make_sequence(d), d, cm,
        n_samples=n_samples, seed=seed, jobs=jobs, backend=kind,
    )


# ----------------------------------------------------------------------
class TestSeedDeterminismMatrix:
    """Fixed (seed, jobs, backend) must reproduce exactly on every kind."""

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_repeat_call_is_bit_identical(self, registry, kind, jobs):
        a = estimate(kind, jobs)
        b = estimate(kind, jobs)
        assert a.mean_cost == b.mean_cost
        assert a.std_error == b.std_error
        assert a.max_reservations_hit == b.max_reservations_hit
        assert a.n_samples == b.n_samples == 300

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_thread_and_process_share_streams(self, registry, jobs):
        """Same SeedSequence-spawned chunk streams => identical estimates."""
        t = estimate("thread", jobs)
        p = estimate("process", jobs)
        assert t.mean_cost == p.mean_cost
        assert t.std_error == p.std_error

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_monte_carlo_many_matrix(self, registry, kind):
        """The coarse-grained batch API is backend-invariant, so the whole
        matrix collapses onto the serial reference."""
        d = make_distribution()
        cm = CostModel.reservation_only()
        reference = None
        for jobs in (1, 2, 4):
            seqs = [make_sequence(d) for _ in range(3)]
            results = monte_carlo_many(
                seqs, d, cm, n_samples=120, seed=7, backend=kind, jobs=jobs
            )
            summary = [(r.mean_cost, r.std_error) for r in results]
            if reference is None:
                reference = summary
            assert summary == reference


# ----------------------------------------------------------------------
class TestProcessChunkFaultDrill:
    """``mc.chunk`` faults inside process workers surface and recover."""

    def _plan(self, **rule_kwargs):
        return FaultPlan([FaultRule(site="mc.chunk", mode="error", **rule_kwargs)])

    def test_injected_fault_pickles_back_from_worker(self, registry):
        """No retry budget: the drill must fail loudly, and the chained
        cause must be the *unpickled* InjectedFault, not a pickle error."""
        with faults.installed(self._plan()):
            # Workers fork at first submit, inheriting the installed plan.
            with ProcessBackend(2) as backend:
                with pytest.raises(PoolError) as excinfo:
                    estimate(backend, 2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault)
        assert cause.site == "mc.chunk"
        assert cause.rule.mode == "error"

    def test_retries_recover_bounded_fault_budget(self, registry):
        """max_triggers=1 per forked worker: <=2 injected faults total, so
        retries=2 always recovers — to the exact fault-free estimate, since
        chunk streams are seeded by position, not by worker."""
        clean = estimate("process", 2, seed=23)
        with faults.installed(self._plan(max_triggers=1)):
            with ProcessBackend(2) as backend:
                d = make_distribution()
                cm = CostModel(alpha=1.0, beta=0.25, gamma=0.05)
                drilled = monte_carlo_expected_cost(
                    make_sequence(d), d, cm,
                    n_samples=300, seed=23, jobs=2, backend=backend,
                    task_retries=2,
                )
        assert drilled.mean_cost == clean.mean_cost
        assert drilled.std_error == clean.std_error
        assert int(registry.counter("pool.retries").value) >= 1

    def test_env_plan_reaches_spawned_children(self, registry, clean_fault_env):
        """The documented child path: workers bootstrap the plan from the
        inherited REPRO_FAULTS variable on their first fire."""
        clean_fault_env.setenv(faults.ENV_VAR, "mc.chunk:error")
        faults.reset_env_cache()
        with ProcessBackend(2) as backend:
            with pytest.raises(PoolError) as excinfo:
                estimate(backend, 2)
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_monte_carlo_many_hits_the_same_site(self, registry):
        """The coarse-grained batch tasks pass through mc.chunk too."""
        d = make_distribution()
        cm = CostModel.reservation_only()
        with faults.installed(self._plan()):
            with ProcessBackend(2) as backend:
                with pytest.raises(PoolError):
                    monte_carlo_many(
                        [make_sequence(d), make_sequence(d)], d, cm,
                        n_samples=64, seed=1, backend=backend,
                    )


# ----------------------------------------------------------------------
class TestLadderUnderProcessBackend:
    """The planner's degradation ladder with a process pool on rung one."""

    REQUEST = {
        "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
        "strategy": "mean_by_mean",
        "n_samples": 600,
        "seed": 9,
    }

    def _chaos_options(self):
        return ResilienceOptions(
            mc_task_timeout_s=5.0,
            mc_task_retries=0,
            breaker_failure_threshold=1,
            breaker_recovery_s=60.0,
        )

    def test_chunk_faults_degrade_to_serial_mc(self, registry):
        plan = FaultPlan([FaultRule(site="mc.chunk", mode="error")])
        with faults.installed(plan):
            with ProcessBackend(2) as backend:
                service = PlannerService(
                    backend=backend, resilience=self._chaos_options()
                )
                response = service.plan(self.REQUEST)
        assert response["degraded"] is True
        assert response["evaluator"] == "mc_serial_reduced"
        outcomes = {a["evaluator"]: a["outcome"] for a in response["attempts"]}
        assert outcomes["mc"] == "error"
        assert outcomes["mc_serial_reduced"] == "ok"

    def test_thread_backend_chunk_faults_degrade_too(self, registry):
        """The same drill against threads: mc.chunk fires in-process there."""
        plan = FaultPlan([FaultRule(site="mc.chunk", mode="error")])
        with faults.installed(plan):
            with ThreadBackend(2) as backend:
                service = PlannerService(
                    backend=backend, resilience=self._chaos_options()
                )
                response = service.plan(self.REQUEST)
        assert response["degraded"] is True
        assert response["evaluator"] == "mc_serial_reduced"
