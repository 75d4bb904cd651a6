"""In-vivo validation: reservation strategies running *inside* the queue.

The paper's NEUROHPC analysis assumes the affine wait model and evaluates
strategies against it analytically.  This module closes the loop: stochastic
jobs flow through the actual (simulated) batch queue, each job's reservation
requests come from a strategy's sequence, and a job killed at its wall is
*resubmitted* with the next reservation — exactly the user behaviour the
paper's Section 1 describes.  The realized turnaround (wait + execution +
wait + ... until success) can then be compared across strategies with all
queueing effects included: contention, backfilling, and the feedback of
resubmissions onto the queue itself (longer requests wait longer, failed
requests come back and congest the queue further).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.batchsim.engine import SimulationResult, simulate
from repro.batchsim.job import Job, JobState
from repro.batchsim.schedulers import Scheduler
from repro.core.sequence import ReservationSequence
from repro.utils.rng import SeedLike, as_generator

__all__ = ["StochasticJobRun", "FlowResult", "run_reservation_flow"]


@dataclass
class StochasticJobRun:
    """One logical stochastic job and the attempts it made."""

    logical_id: int
    actual_runtime: float
    first_submit: float
    attempts: List[Job] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].state is JobState.COMPLETED

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def turnaround(self) -> float:
        """First submission to final completion."""
        if not self.completed:
            raise ValueError(f"logical job {self.logical_id} never completed")
        assert self.attempts[-1].end_time is not None
        return self.attempts[-1].end_time - self.first_submit


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a reservation-strategy flow through the simulator."""

    runs: List[StochasticJobRun]
    simulation: SimulationResult
    strategy_name: str

    def mean_turnaround(self) -> float:
        return float(np.mean([r.turnaround for r in self.runs]))

    def mean_attempts(self) -> float:
        return float(np.mean([r.n_attempts for r in self.runs]))

    def p95_turnaround(self) -> float:
        return float(np.quantile([r.turnaround for r in self.runs], 0.95))


def run_reservation_flow(
    strategy,
    distribution,
    n_jobs: int,
    total_nodes: int,
    arrival_rate: float,
    nodes_per_job: int = 1,
    scheduler: Optional[Scheduler] = None,
    seed: SeedLike = None,
    max_attempts: int = 60,
    cost_model=None,
) -> FlowResult:
    """Run ``n_jobs`` stochastic jobs through the queue under ``strategy``.

    Every logical job draws an execution time from ``distribution``; its
    reservation lengths follow the strategy's sequence (shared across jobs —
    they are i.i.d. from the same law).  Kills trigger resubmission at the
    kill time with the next reservation length.
    """
    if n_jobs < 1:
        raise ValueError("need at least one job")
    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    if max_attempts < 1:
        raise ValueError("need at least one attempt")
    rng = as_generator(seed)
    runtimes = distribution.rvs(n_jobs, seed=rng)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, size=n_jobs))

    if cost_model is None:
        cost_model = _default_cost_model()
    # One shared sequence prefix, extended to cover the worst job up front.
    sequence: ReservationSequence = strategy.sequence(distribution, cost_model)
    sequence.ensure_covers(float(runtimes.max()))
    lengths = sequence.values

    runs = [
        StochasticJobRun(
            logical_id=i,
            actual_runtime=float(runtimes[i]),
            first_submit=float(arrivals[i]),
        )
        for i in range(n_jobs)
    ]
    # Physical job ids encode (logical, attempt): id = logical * max_attempts + k.
    initial: List[Job] = []
    for run in runs:
        job = Job(
            job_id=run.logical_id * max_attempts,
            submit_time=run.first_submit,
            nodes=nodes_per_job,
            requested_runtime=float(lengths[0]),
            actual_runtime=run.actual_runtime,
        )
        run.attempts.append(job)
        initial.append(job)

    def on_finish(job: Job, now: float):
        if job.state is not JobState.KILLED:
            return ()
        logical = job.job_id // max_attempts
        attempt = job.job_id % max_attempts + 1
        if attempt >= max_attempts:
            raise RuntimeError(
                f"logical job {logical} exhausted {max_attempts} attempts"
            )
        run = runs[logical]
        nxt = Job(
            job_id=logical * max_attempts + attempt,
            submit_time=now,
            nodes=job.nodes,
            requested_runtime=float(lengths[attempt]),
            actual_runtime=run.actual_runtime,
        )
        run.attempts.append(nxt)
        return (nxt,)

    result = simulate(
        initial, total_nodes=total_nodes, scheduler=scheduler, on_finish=on_finish
    )
    for run in runs:
        if not run.completed:
            raise RuntimeError(
                f"logical job {run.logical_id} (runtime {run.actual_runtime}) "
                "did not complete"
            )
    return FlowResult(
        runs=runs,
        simulation=result,
        strategy_name=getattr(strategy, "name", type(strategy).__name__),
    )


def _default_cost_model():
    """Strategies need *a* cost model to shape their sequences; inside the
    simulator the realized cost is queueing time, so the default is the
    paper's NEUROHPC parameters (the model this flow validates)."""
    from repro.core.cost import CostModel

    return CostModel.neurohpc()
