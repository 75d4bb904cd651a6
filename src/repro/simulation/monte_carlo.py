"""Vectorized Monte-Carlo evaluation of reservation sequences (Eq. 13).

The paper estimates the expected cost of a sequence by drawing ``N``
execution times and averaging ``C(k, t)``.  The hot path here is fully
vectorized: one ``searchsorted`` against the reservation grid locates the
covering reservation of every sample, and a prefix-sum over per-reservation
failure costs accumulates the paid-but-failed reservations — no per-sample
Python loop (cf. the hpc-parallel guide on vectorizing).

Backends (``backend=`` may be a :class:`repro.service.pool.ExecutionBackend`
or one of the strings ``"serial"``, ``"thread"``, ``"process"``;
:func:`repro.service.pool.resolve_backend` normalizes it):

* **serial** — the historical single-pass kernel, bit-identical for a fixed
  seed.  Always used for ``jobs=1`` with no explicit backend.
* **any pool** (thread, process, or a caller's own backend) — the samples
  split into one chunk per worker and each worker *draws and costs its own
  chunk* from a ``SeedSequence``-spawned stream, shipping only a seed and
  the materialized reservation values — never the sample block.  A fixed
  ``(seed, jobs)`` pair therefore gives the same estimate on every pool.

Evaluating a whole *grid* of candidate sequences against one shared sample
set lives in :mod:`repro.simulation.batch`, which amortizes everything above
over the sequence axis.

Instrumentation (``repro.observability``): the kernel counts samples costed
(``mc.samples``) and kernel invocations (``mc.kernel_calls``) and times each
invocation under ``mc.kernel``; all of it is a no-op unless observability is
enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.observability import metrics
from repro.observability.profiling import profiled
from repro.resilience import faults
from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences

__all__ = [
    "MonteCarloResult",
    "costs_for_times",
    "monte_carlo_expected_cost",
    "PROCESS_COVERAGE_TAIL",
]

#: Tail mass used to pre-extend a sequence before pool dispatch: workers
#: cannot run extender closures, so the driver materializes reservations out
#: to ``Q(1 - tail)`` first.  A worker whose chunk still exceeds that horizon
#: reports back and the driver re-costs that chunk serially (the
#: ``mc.chunk_fallbacks`` counter).
PROCESS_COVERAGE_TAIL = 1e-12


@dataclass(frozen=True)
class MonteCarloResult:
    """Summary of a Monte-Carlo cost estimate."""

    mean_cost: float
    std_error: float
    n_samples: int
    n_reservations_used: int
    max_reservations_hit: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean cost."""
        half = z * self.std_error
        return (self.mean_cost - half, self.mean_cost + half)


def kernel_costs_and_indices(
    values: np.ndarray,
    times: np.ndarray,
    cost_model: CostModel,
) -> tuple[np.ndarray, np.ndarray]:
    """The raw Eq. (2) costing kernel on plain arrays: ``(C(k, t), k)``.

    ``values`` must be strictly increasing and cover ``times.max()``; no
    validation or extension happens here.  Every caller — serial, thread
    chunk, process chunk, and the batched matrix kernel in
    :mod:`repro.simulation.batch` — funnels through this exact sequence of
    floating-point operations, which is what makes the differential harness's
    bit-identity assertions possible.
    """
    # k[j]: index of the first reservation >= times[j].
    k = np.searchsorted(values, times, side="left")
    # prefix[i]: total cost of the first i reservations, all failed.  A
    # near-collapse Eq. (11) candidate can produce astronomically large
    # tail reservations; their prefix entries overflow to inf but sit
    # beyond every sample's index, so the overflow is harmless — silence
    # it locally.
    with np.errstate(over="ignore"):
        failure_costs = (
            cost_model.alpha + cost_model.beta
        ) * values + cost_model.gamma
        prefix = np.concatenate([[0.0], np.cumsum(failure_costs)])
    costs = (
        prefix[k]
        + cost_model.alpha * values[k]
        + cost_model.beta * times
        + cost_model.gamma
    )
    return costs, k


def _costs_and_indices(
    sequence: ReservationSequence,
    times: np.ndarray,
    cost_model: CostModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared kernel: ``(C(k, t), k)`` for every execution time.

    Computing the covering indices ``k`` once and returning them alongside
    the costs lets :func:`monte_carlo_expected_cost` report
    ``max_reservations_hit`` without a second ``searchsorted`` over the same
    samples (previously a duplicated kernel call).
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one execution time")
    if np.any(times < 0):
        raise ValueError("execution times must be nonnegative")
    sequence.ensure_covers(float(times.max()))
    values = sequence.values

    metrics.inc("mc.samples", times.size)
    metrics.inc("mc.kernel_calls")
    with metrics.timer("mc.kernel"):
        costs, k = kernel_costs_and_indices(values, times, cost_model)
    return costs, k


@profiled(name="mc.costs_for_times")
def costs_for_times(
    sequence: ReservationSequence,
    times: np.ndarray,
    cost_model: CostModel,
) -> np.ndarray:
    """Cost ``C(k, t)`` for every execution time in ``times`` (vectorized).

    The sequence is extended (via its extender) until it covers the largest
    sample; a finite sequence that cannot cover raises ``SequenceError``.
    """
    costs, _ = _costs_and_indices(sequence, times, cost_model)
    return costs


def _sample_and_cost_chunk(args):
    """Draw one chunk from its spawned stream and cost it (pool task).

    Returns ``(sum, sum_sq, max_index, covered, chunk_max)``.  The sample
    block never crosses the process boundary — only the chunk's
    ``SeedSequence`` and the materialized reservation values do.  When the
    chunk's largest sample exceeds the pre-extended horizon the worker
    reports ``covered=False`` and the driver re-costs that chunk serially
    with the live extender (same stream, so the estimate is unchanged).

    Module-level so the process backend can pickle it.  Tagged as the
    ``mc.chunk`` fault-injection site: chaos drills can make individual
    chunks raise or hang without touching the serial kernel, which the
    degradation ladder keeps as its fallback.
    """
    faults.fire("mc.chunk")  # repro-lint: disable=RS203 -- raising out of the public batch API (monte_carlo_many) is its contract; chaos tests assert the raise, and every service-tier path is absorbed by run_ladder
    distribution, child_seed, n, values, cost_model = args
    rng = np.random.default_rng(child_seed)
    times = np.asarray(distribution.rvs(n, seed=rng), dtype=float)
    chunk_max = float(times.max())
    if chunk_max > float(values[-1]):
        return 0.0, 0.0, 0, False, chunk_max
    costs, k = kernel_costs_and_indices(values, times, cost_model)
    return float(costs.sum()), float(np.dot(costs, costs)), int(k.max()), True, chunk_max


def _result_from_partials(
    partials, n_samples: int, n_reservations_used: int
) -> MonteCarloResult:
    """Combine per-chunk ``(sum, sum_sq, max_index)`` into one estimate."""
    total = float(sum(p[0] for p in partials))
    total_sq = float(sum(p[1] for p in partials))
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
        std_error = float(np.sqrt(var / n_samples))
    else:
        std_error = 0.0
    return MonteCarloResult(
        mean_cost=mean,
        std_error=std_error,
        n_samples=n_samples,
        n_reservations_used=n_reservations_used,
        max_reservations_hit=max(p[2] for p in partials) + 1,
    )


def _coverage_horizon(distribution) -> float:
    """Reservation horizon pre-extended before pool dispatch.

    ``Q(1 - PROCESS_COVERAGE_TAIL)`` for every law, bounded or not: an
    extender that converges toward a finite upper bound may never reach
    the bound itself, and a chunk past the horizon falls back to the
    serial extender anyway.
    """
    return float(distribution.quantile(1.0 - PROCESS_COVERAGE_TAIL))


def monte_carlo_expected_cost(
    sequence: ReservationSequence,
    distribution,
    cost_model: CostModel,
    n_samples: int = 1000,
    seed: SeedLike = None,
    jobs: int = 1,
    backend=None,
    task_timeout: float | None = None,
    task_retries: int = 0,
) -> MonteCarloResult:
    """Estimate ``E(S)`` by averaging over ``n_samples`` sampled jobs (Eq. 13).

    ``jobs=1`` (the default, with no ``backend``) is the library's historical
    serial path, bit-identical for a fixed seed.  ``jobs > 1`` (threads when
    no ``backend`` is named) — or an explicit backend (object or name; see
    the module docstring) — splits the samples into one chunk per worker,
    each drawn from its own ``SeedSequence``-spawned stream: the estimate is
    still deterministic for a fixed ``(seed, jobs)`` pair and *identical* on
    every pool (same streams, same kernel), but uses a different sample set
    than the serial path (they agree within the Monte-Carlo confidence
    interval).

    ``task_timeout``/``task_retries`` are forwarded to the backend's
    ``map`` so a hung or faulted chunk (e.g. under a ``REPRO_FAULTS``
    drill) is bounded and resubmitted instead of stalling the estimate;
    both default to the historical no-timeout, no-retry behavior.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")

    # Deferred import: repro.service imports this module for the planner.
    from repro.service.pool import chunk_sizes, resolve_backend

    if backend is None and jobs > 1:
        backend = "thread"
    pool, owned = resolve_backend(backend, jobs)
    metrics.inc(f"mc.batch.backend.{pool.kind if pool is not None else 'serial'}")

    if pool is None:
        rng = as_generator(seed)
        times = distribution.rvs(n_samples, seed=rng)
        costs, k = _costs_and_indices(sequence, times, cost_model)
        metrics.inc("mc.searchsorted_reused")  # one kernel call where there were two
        return MonteCarloResult(
            mean_cost=float(costs.mean()),
            std_error=float(costs.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0,
            n_samples=n_samples,
            n_reservations_used=len(sequence),
            max_reservations_hit=int(k.max()) + 1,
        )

    # Fewer samples than workers: chunk_sizes collapses to one sample per
    # chunk, so no chunk is ever empty (an empty chunk would make the
    # worker's ``times.max()`` raise).
    n_chunks = jobs if jobs > 1 else int(getattr(pool, "jobs", 1))
    sizes = chunk_sizes(n_samples, max(n_chunks, 1))
    try:
        return _pooled_expected_cost(
            sequence, distribution, cost_model, sizes, seed,
            pool, task_timeout, task_retries, n_samples,
        )
    finally:
        if owned:
            pool.close()


def _pooled_expected_cost(
    sequence: ReservationSequence,
    distribution,
    cost_model: CostModel,
    sizes,
    seed: SeedLike,
    pool,
    task_timeout,
    task_retries,
    n_samples: int,
) -> MonteCarloResult:
    """Pooled estimate: workers draw and cost their own chunks."""
    children = spawn_seed_sequences(seed, len(sizes))
    if sequence.is_extensible:
        sequence.ensure_covers(_coverage_horizon(distribution))
    values = np.array(sequence.values, dtype=float, copy=True)
    metrics.inc("mc.parallel_chunks", len(sizes))
    partials = pool.map(
        _sample_and_cost_chunk,
        [
            (distribution, child, n, values, cost_model)
            for n, child in zip(sizes, children)
        ],
        timeout=task_timeout,
        retries=task_retries,
    )
    combined = []
    for i, partial in enumerate(partials):
        if not partial[3]:
            # The chunk outran the pre-extended horizon (probability
            # ~ n * PROCESS_COVERAGE_TAIL): redraw the same stream serially
            # where the live extender is available.
            metrics.inc("mc.chunk_fallbacks")
            rng = np.random.default_rng(children[i])
            times = distribution.rvs(sizes[i], seed=rng)
            costs, k = _costs_and_indices(sequence, times, cost_model)
            combined.append(
                (float(costs.sum()), float(np.dot(costs, costs)), int(k.max()))
            )
        else:
            # Worker-side counters stay in the worker; count here instead
            # (a fallback chunk is counted by the serial kernel above).
            metrics.inc("mc.samples", sizes[i])
            combined.append(partial[:3])
    return _result_from_partials(combined, n_samples, len(sequence))
