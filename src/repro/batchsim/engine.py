"""Discrete-event engine for the batch-queue simulator.

Two event kinds drive the simulation: job *submission* (enqueue) and job
*finish* (release nodes).  After every event the scheduler is invoked; job
finish times are determined when a job starts (``min(actual, requested)``),
so the event heap always holds the exact future.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List

from repro.batchsim.cluster import Cluster
from repro.batchsim.job import Job, JobState
from repro.batchsim.schedulers import EasyBackfillScheduler, Scheduler
from repro.observability import metrics, tracing

__all__ = ["SimulationResult", "simulate"]

_SUBMIT = 0
_FINISH = 1  # finishes sort before submits at equal times: nodes free first


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated workload."""

    jobs: List[Job]
    makespan: float
    scheduler: str
    total_nodes: int

    @property
    def killed_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.KILLED]

    def mean_wait(self) -> float:
        waits = [j.wait_time for j in self.jobs if j.start_time is not None]
        if not waits:
            raise ValueError("no job ever started")
        return sum(waits) / len(waits)

    def utilization(self) -> float:
        """Node-hours used / node-hours available over the makespan."""
        if self.makespan <= 0:
            return 0.0
        used = sum(j.nodes * j.runs_for for j in self.jobs if j.end_time is not None)
        return used / (self.total_nodes * self.makespan)


def simulate(
    jobs: Iterable[Job],
    total_nodes: int,
    scheduler: Scheduler | None = None,
    on_finish=None,
) -> SimulationResult:
    """Run ``jobs`` through a ``total_nodes``-node cluster under ``scheduler``
    (default: EASY backfilling) and return the completed log.

    Jobs are processed strictly by event time; the input order only breaks
    submission ties.  Jobs requesting more nodes than the cluster has are
    rejected up front with a ``ValueError`` (they could never start).

    ``on_finish(job, now)``, if given, is invoked after every job finishes
    (completed or killed) and may return an iterable of *new* jobs to submit
    at times ``>= now`` — the hook behind reservation resubmission flows,
    where a job killed at its wall comes back with a longer request.
    """
    scheduler = scheduler or EasyBackfillScheduler()
    cluster = Cluster(total_nodes)
    job_list = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    if not job_list:
        raise ValueError("need at least one job to simulate")

    counter = itertools.count()
    events: list = []
    all_jobs: List[Job] = []

    def submit(job: Job, now: float | None = None) -> None:
        if job.nodes > total_nodes:
            raise ValueError(
                f"job {job.job_id} requests {job.nodes} nodes on a "
                f"{total_nodes}-node cluster"
            )
        if now is not None and job.submit_time < now:
            raise ValueError(
                f"job {job.job_id} resubmitted into the past "
                f"({job.submit_time} < {now})"
            )
        all_jobs.append(job)
        heapq.heappush(events, (job.submit_time, _SUBMIT, next(counter), job))

    for job in job_list:
        submit(job)

    queue: Deque[Job] = deque()
    makespan = 0.0

    def handle_finish(job: Job, now: float) -> None:
        cluster.finish(job, now)
        if on_finish is not None:
            for new_job in on_finish(job, now) or ():
                submit(new_job, now)

    n_events = 0
    n_schedules = 0
    with tracing.span(
        "batchsim.simulate",
        scheduler=scheduler.name,
        total_nodes=total_nodes,
        n_jobs=len(job_list),
    ) as sp, metrics.timer("batchsim.simulate"):
        while events:
            now, kind, _, job = heapq.heappop(events)
            n_events += 1
            makespan = max(makespan, now)
            if kind == _SUBMIT:
                queue.append(job)
            else:
                handle_finish(job, now)
            # Drain every simultaneous event before scheduling, so the
            # scheduler sees the complete state at time `now`.
            while events and events[0][0] == now:
                now2, kind2, _, job2 = heapq.heappop(events)
                n_events += 1
                if kind2 == _SUBMIT:
                    queue.append(job2)
                else:
                    handle_finish(job2, now2)
            metrics.observe("batchsim.queue_depth", len(queue))
            n_schedules += 1
            for started in scheduler.schedule(queue, cluster, now):
                end = now + started.runs_for
                heapq.heappush(events, (end, _FINISH, next(counter), started))
                makespan = max(makespan, end)
        metrics.inc("batchsim.events", n_events)
        metrics.inc("batchsim.scheduler_invocations", n_schedules)
        metrics.inc("batchsim.jobs", len(all_jobs))
        if sp is not None:
            sp.set("events", n_events)
            sp.set("scheduler_invocations", n_schedules)
            sp.set("makespan", makespan)

    if queue:
        stuck = [j.job_id for j in queue]
        raise RuntimeError(
            f"simulation ended with jobs still queued: {stuck} "
            "(scheduler failed to make progress)"
        )
    return SimulationResult(
        jobs=all_jobs,
        makespan=makespan,
        scheduler=scheduler.name,
        total_nodes=total_nodes,
    )
