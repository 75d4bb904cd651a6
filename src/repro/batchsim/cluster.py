"""Cluster state for the batch-queue simulator.

Tracks node occupancy as a set of running jobs with known release times —
all the state FCFS/EASY need.  Nodes are fungible (no topology), which is
the granularity at which the paper's wait-time model operates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.batchsim.job import Job, JobState

__all__ = ["Cluster"]


class Cluster:
    """A homogeneous pool of ``total_nodes`` nodes."""

    def __init__(self, total_nodes: int):
        if total_nodes < 1:
            raise ValueError(f"cluster needs at least one node, got {total_nodes}")
        self.total_nodes = int(total_nodes)
        self._running: Dict[int, Job] = {}

    @property
    def used_nodes(self) -> int:
        return sum(job.nodes for job in self._running.values())

    @property
    def free_nodes(self) -> int:
        return self.total_nodes - self.used_nodes

    def can_start(self, job: Job) -> bool:
        return job.nodes <= self.free_nodes

    def start(self, job: Job, now: float) -> float:
        """Start ``job`` at time ``now``; returns its node-release time."""
        if not self.can_start(job):
            raise ValueError(
                f"job {job.job_id} needs {job.nodes} nodes but only "
                f"{self.free_nodes} are free"
            )
        if job.state is not JobState.PENDING:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not pending")
        job.state = JobState.RUNNING
        job.start_time = now
        self._running[job.job_id] = job
        return now + job.runs_for

    def finish(self, job: Job, now: float) -> None:
        """Release ``job``'s nodes at time ``now``."""
        if job.job_id not in self._running:
            raise ValueError(f"job {job.job_id} is not running")
        del self._running[job.job_id]
        job.end_time = now
        job.state = JobState.KILLED if job.hits_wall else JobState.COMPLETED

    def release_schedule(self, now: float) -> List[Tuple[float, int]]:
        """Future ``(release_time, nodes)`` pairs of running jobs, sorted.

        Release times use the *requested* runtime — the scheduler plans with
        the reservation wall, not the (unknown) actual runtime; this is what
        makes long requests wait longer, the Fig. 2 effect.
        """
        out = []
        for job in self._running.values():
            assert job.start_time is not None
            out.append((job.start_time + job.requested_runtime, job.nodes))
        out.sort()
        return out

    def shadow_time(self, nodes_needed: int, now: float) -> Tuple[float, int]:
        """Earliest time ``nodes_needed`` nodes are (conservatively) free,
        and the number of *extra* free nodes at that moment.

        This is EASY backfilling's reservation for the queue head: later
        jobs may be backfilled only if they end before the shadow time or
        fit into the extra nodes.
        """
        if nodes_needed > self.total_nodes:
            raise ValueError(
                f"request for {nodes_needed} nodes exceeds the cluster size "
                f"{self.total_nodes}"
            )
        free = self.free_nodes
        if free >= nodes_needed:
            return (now, free - nodes_needed)
        for release_time, nodes in self.release_schedule(now):
            free += nodes
            if free >= nodes_needed:
                return (max(release_time, now), free - nodes_needed)
        raise RuntimeError(
            "release schedule exhausted without freeing enough nodes "
            "(inconsistent cluster state)"
        )
