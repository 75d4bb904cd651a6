"""Tests for the discrete-event engine, workload generation and analysis."""

import pytest

from repro.batchsim import (
    EasyBackfillScheduler,
    FCFSScheduler,
    Job,
    JobState,
    QueueStatistics,
    WorkloadSpec,
    generate_workload,
    simulate,
    simulation_queue_log,
    wait_model_from_simulation,
)


def make_job(job_id, submit, nodes, requested, actual=None):
    return Job(
        job_id=job_id,
        submit_time=submit,
        nodes=nodes,
        requested_runtime=requested,
        actual_runtime=actual if actual is not None else requested,
    )


class TestEngine:
    def test_single_job(self):
        res = simulate([make_job(1, 0.0, 2, 3.0, 2.5)], total_nodes=4)
        j = res.jobs[0]
        assert j.state is JobState.COMPLETED
        assert j.start_time == 0.0
        assert j.end_time == 2.5
        assert res.makespan == 2.5

    def test_sequential_when_full(self):
        jobs = [make_job(1, 0.0, 4, 2.0), make_job(2, 0.0, 4, 2.0)]
        res = simulate(jobs, total_nodes=4, scheduler=FCFSScheduler())
        assert res.jobs[0].start_time == 0.0
        assert res.jobs[1].start_time == 2.0
        assert res.jobs[1].wait_time == 2.0

    def test_parallel_when_fits(self):
        jobs = [make_job(1, 0.0, 2, 2.0), make_job(2, 0.0, 2, 2.0)]
        res = simulate(jobs, total_nodes=4)
        assert res.jobs[0].start_time == 0.0
        assert res.jobs[1].start_time == 0.0
        assert res.makespan == 2.0

    def test_killed_job_frees_nodes_at_wall(self):
        jobs = [
            make_job(1, 0.0, 4, requested=2.0, actual=5.0),  # killed at t=2
            make_job(2, 0.0, 4, 1.0),
        ]
        res = simulate(jobs, total_nodes=4, scheduler=FCFSScheduler())
        assert res.jobs[0].state is JobState.KILLED
        assert res.jobs[0].end_time == 2.0
        assert res.jobs[1].start_time == 2.0

    def test_backfilling_reduces_wait(self):
        """EASY strictly beats FCFS on a crafted blocking pattern."""
        def jobs():
            return [
                make_job(1, 0.0, 3, 10.0),
                make_job(2, 0.1, 4, 5.0),   # blocked head
                make_job(3, 0.2, 1, 5.0),   # backfillable
            ]

        fcfs = simulate(jobs(), 4, scheduler=FCFSScheduler())
        easy = simulate(jobs(), 4, scheduler=EasyBackfillScheduler())
        assert easy.jobs[2].wait_time < fcfs.jobs[2].wait_time
        # The head job starts at the same time under both (no delay).
        assert easy.jobs[1].start_time == fcfs.jobs[1].start_time

    def test_all_jobs_finish(self):
        jobs = generate_workload(
            WorkloadSpec(n_jobs=300, arrival_rate=50.0, max_nodes_exp=5), seed=0
        )
        res = simulate(jobs, total_nodes=32)
        assert all(j.end_time is not None for j in res.jobs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            simulate([], total_nodes=4)

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            simulate([make_job(1, 0.0, 8, 1.0)], total_nodes=4)

    def test_utilization_bounds(self):
        jobs = generate_workload(
            WorkloadSpec(n_jobs=200, arrival_rate=100.0, max_nodes_exp=4), seed=1
        )
        res = simulate(jobs, total_nodes=16)
        assert 0.0 < res.utilization() <= 1.0

    def test_deterministic(self):
        spec = WorkloadSpec(n_jobs=200, arrival_rate=40.0, max_nodes_exp=5)
        a = simulate(generate_workload(spec, seed=5), 32)
        b = simulate(generate_workload(spec, seed=5), 32)
        assert a.mean_wait() == b.mean_wait()


class TestWorkload:
    def test_spec_validation(self):
        for kwargs in [
            {"n_jobs": 0},
            {"arrival_rate": 0.0},
            {"runtime_log_sigma": 0.0},
            {"max_nodes_exp": -1},
            {"max_overestimate": -0.5},
            {"max_request": 0.0},
            {"underestimate_fraction": 1.0},
        ]:
            with pytest.raises(ValueError):
                WorkloadSpec(**kwargs)

    def test_requests_cover_actual_by_default(self):
        jobs = generate_workload(WorkloadSpec(n_jobs=500), seed=2)
        assert all(j.requested_runtime >= j.actual_runtime for j in jobs)

    def test_underestimators_get_killed(self):
        spec = WorkloadSpec(n_jobs=500, underestimate_fraction=0.2,
                            arrival_rate=1000.0)
        jobs = generate_workload(spec, seed=3)
        res = simulate(jobs, total_nodes=256)
        kill_frac = len(res.killed_jobs) / len(res.jobs)
        assert 0.1 < kill_frac < 0.3

    def test_node_counts_powers_of_two(self):
        jobs = generate_workload(WorkloadSpec(n_jobs=300, max_nodes_exp=4), seed=4)
        allowed = {1, 2, 4, 8, 16}
        assert {j.nodes for j in jobs} <= allowed

    def test_arrivals_increasing(self):
        jobs = generate_workload(WorkloadSpec(n_jobs=100), seed=5)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)


class TestAnalysis:
    @pytest.fixture(scope="class")
    def busy_result(self):
        # Heavy load so queueing is substantial and the slope is visible.
        spec = WorkloadSpec(n_jobs=2000, arrival_rate=30.0)
        return simulate(generate_workload(spec, seed=1), total_nodes=64)

    def test_statistics(self, busy_result):
        stats = QueueStatistics.from_result(busy_result)
        assert stats.mean_wait > 0
        assert stats.median_wait <= stats.p95_wait
        assert 0.5 < stats.utilization <= 1.0

    def test_queue_log_shape(self, busy_result):
        log = simulation_queue_log(busy_result)
        assert log.requested_hours.size == len(busy_result.jobs)

    def test_emergent_positive_slope(self, busy_result):
        """Fig. 2's phenomenon emerges: longer requests wait longer under
        backfilling, with a clearly positive affine slope."""
        model = wait_model_from_simulation(busy_result)
        assert model.slope > 0.3

    def test_fcfs_has_flatter_relative_slope(self):
        """Under FCFS the wait is (nearly) independent of *this job's* own
        requested runtime; backfilling is what penalizes long requests.
        Compare slopes normalized by the mean wait."""
        spec = WorkloadSpec(n_jobs=1500, arrival_rate=30.0)
        easy = simulate(generate_workload(spec, seed=7), 64,
                        scheduler=EasyBackfillScheduler())
        fcfs = simulate(generate_workload(spec, seed=7), 64,
                        scheduler=FCFSScheduler())
        easy_rel = wait_model_from_simulation(easy).slope / (
            QueueStatistics.from_result(easy).mean_wait
        )
        fcfs_rel = wait_model_from_simulation(fcfs).slope / (
            QueueStatistics.from_result(fcfs).mean_wait
        )
        assert easy_rel > fcfs_rel
