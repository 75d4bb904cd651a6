"""Property tests: random workloads through the engine, all invariants hold."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchsim import (
    EasyBackfillScheduler,
    FCFSScheduler,
    Job,
    WorkloadSpec,
    generate_workload,
    simulate,
)
from repro.batchsim.validate import ValidationError, validate_simulation


class TestValidator:
    def test_accepts_valid_simulation(self):
        jobs = generate_workload(
            WorkloadSpec(n_jobs=200, arrival_rate=40.0, max_nodes_exp=4), seed=0
        )
        result = simulate(jobs, total_nodes=16)
        validate_simulation(result)  # must not raise

    def test_detects_capacity_violation(self):
        jobs = [
            Job(job_id=i, submit_time=0.0, nodes=2, requested_runtime=5.0,
                actual_runtime=5.0)
            for i in range(2)
        ]
        result = simulate(jobs, total_nodes=4)
        # Corrupt the log: pretend both jobs used 3 nodes.
        for j in result.jobs:
            j.nodes = 3
        with pytest.raises(ValidationError, match="capacity"):
            validate_simulation(result)

    def test_detects_time_travel(self):
        jobs = [Job(job_id=0, submit_time=1.0, nodes=1,
                    requested_runtime=1.0, actual_runtime=1.0)]
        result = simulate(jobs, total_nodes=2)
        result.jobs[0].start_time = 0.5  # before submission
        with pytest.raises(ValidationError, match="before its"):
            validate_simulation(result)

    def test_detects_wall_violation(self):
        jobs = [Job(job_id=0, submit_time=0.0, nodes=1,
                    requested_runtime=2.0, actual_runtime=1.0)]
        result = simulate(jobs, total_nodes=2)
        result.jobs[0].end_time = 0.5  # ran shorter than its actual runtime
        with pytest.raises(ValidationError, match="occupied nodes"):
            validate_simulation(result)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_jobs=st.integers(min_value=5, max_value=150),
    arrival_rate=st.floats(min_value=1.0, max_value=200.0),
    nodes_exp=st.integers(min_value=0, max_value=4),
    total_nodes=st.sampled_from([16, 32, 64]),
    underestimate=st.floats(min_value=0.0, max_value=0.4),
)
@pytest.mark.parametrize("scheduler_cls", [FCFSScheduler, EasyBackfillScheduler])
def test_property_random_workloads_valid(
    scheduler_cls, seed, n_jobs, arrival_rate, nodes_exp, total_nodes, underestimate
):
    """Any random workload, either scheduler: every invariant holds."""
    spec = WorkloadSpec(
        n_jobs=n_jobs,
        arrival_rate=arrival_rate,
        max_nodes_exp=nodes_exp,
        underestimate_fraction=underestimate,
    )
    jobs = generate_workload(spec, seed=seed)
    result = simulate(jobs, total_nodes=total_nodes, scheduler=scheduler_cls())
    validate_simulation(result)
    assert len(result.jobs) == n_jobs


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_easy_never_delays_head_start(seed):
    """EASY's guarantee: for the same workload, no job's *own* start under
    EASY can violate capacity, and the schedule is at least as packed —
    check total weighted completion is no worse than FCFS by more than a
    tolerance (backfilling cannot create unbounded regressions for the
    aggregate)."""
    spec = WorkloadSpec(n_jobs=60, arrival_rate=40.0, max_nodes_exp=4)
    jobs_a = generate_workload(spec, seed=seed)
    jobs_b = generate_workload(spec, seed=seed)
    easy = simulate(jobs_a, total_nodes=16, scheduler=EasyBackfillScheduler())
    fcfs = simulate(jobs_b, total_nodes=16, scheduler=FCFSScheduler())
    validate_simulation(easy)
    validate_simulation(fcfs)
    assert easy.mean_wait() <= fcfs.mean_wait() + 1e-9
