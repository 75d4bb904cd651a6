"""Jobs for the batch-queue simulator.

A batch job carries the quantities the paper's Fig. 2 pipeline needs: the
*requested* runtime (what the user asked for — the reservation length), the
*actual* runtime, a node count, and the timestamps filled in by the engine.
The wait-time model `w(R) = alpha R + gamma` the paper fits from Intrepid
logs emerges from how the scheduler treats jobs with different requested
runtimes; this substrate lets us generate such logs from first principles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["JobState", "Job"]


class JobState(enum.Enum):
    PENDING = "pending"  # submitted, waiting in the queue
    RUNNING = "running"
    COMPLETED = "completed"  # finished within its request
    KILLED = "killed"  # hit its requested-runtime wall


@dataclass
class Job:
    """One batch job."""

    job_id: int
    submit_time: float
    nodes: int
    requested_runtime: float
    actual_runtime: float
    state: JobState = JobState.PENDING
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"job {self.job_id}: needs at least one node")
        if self.requested_runtime <= 0:
            raise ValueError(f"job {self.job_id}: requested runtime must be positive")
        if self.actual_runtime <= 0:
            raise ValueError(f"job {self.job_id}: actual runtime must be positive")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: negative submit time")

    @property
    def runs_for(self) -> float:
        """Wall-clock the job occupies nodes: min(actual, requested)."""
        return min(self.actual_runtime, self.requested_runtime)

    @property
    def hits_wall(self) -> bool:
        """True when the job would be killed at the requested-runtime limit."""
        return self.actual_runtime > self.requested_runtime

    @property
    def wait_time(self) -> float:
        """Queue wait (defined once started)."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float:
        """Submit-to-finish time (defined once finished)."""
        if self.end_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.end_time - self.submit_time
