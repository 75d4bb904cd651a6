"""Vectorized Monte-Carlo evaluation of reservation sequences (Eq. 13).

The paper estimates the expected cost of a sequence by drawing ``N``
execution times and averaging ``C(k, t)``.  The hot path here is fully
vectorized: one ``searchsorted`` against the reservation grid locates the
covering reservation of every sample, and a prefix-sum over per-reservation
failure costs accumulates the paid-but-failed reservations — no per-sample
Python loop (cf. the hpc-parallel guide on vectorizing).

Backends: ``backend=`` is None or an
:class:`repro.service.pool.ExecutionBackend` that the caller built and
closes; this module never creates or closes a pool.

* **None or** :class:`~repro.service.pool.SerialBackend` — the historical
  single-pass kernel, bit-identical for a fixed seed.
* **any other pool** (thread, process, or a caller's own backend) — the
  samples split into one chunk per worker (the pool's ``jobs``) and each
  worker *draws and costs its own chunk* from a ``SeedSequence``-spawned
  stream, shipping only a seed and the materialized reservation values —
  never the sample block.  A fixed seed and chunk count therefore give the
  same estimate on every pool.  :func:`monte_carlo_many` in
  :mod:`repro.simulation.batch` runs its one-chunk-per-sequence tasks
  through the same chunk runner.

Evaluating a whole *grid* of candidate sequences against one shared sample
set lives in :mod:`repro.simulation.batch`, which amortizes everything above
over the sequence axis.

Instrumentation (``repro.observability``): the kernel counts samples costed
(``mc.samples``) and kernel invocations (``mc.kernel_calls``) and times each
invocation under ``mc.kernel``; all of it is a no-op unless observability is
enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence as SequenceType, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.observability import metrics
from repro.resilience import faults
from repro.service.pool import ExecutionBackend, SerialBackend, chunk_sizes
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
    samples.
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

    Returns the chunk's :func:`_partial`.  The sample block never crosses
    the process boundary — only the chunk's ``SeedSequence`` and the
    materialized reservation values do.  When the chunk's largest sample
    exceeds the pre-extended horizon the worker returns None and the
    driver re-costs that chunk serially with the live extender (same
    stream, so the estimate is unchanged).

    Module-level so the process backend can pickle it.  Tagged as the
    ``mc.chunk`` fault-injection site: chaos drills can make individual
    chunks raise or hang without touching the serial kernel, which the
    degradation ladder keeps as its fallback.
    """
    faults.fire("mc.chunk")  # repro-lint: disable=RS203 -- raising out of the public batch API (monte_carlo_many) is its contract; chaos tests assert the raise, and every service-tier path is absorbed by run_ladder
    distribution, child_seed, n, values, cost_model = args
    rng = np.random.default_rng(child_seed)
    times = np.asarray(distribution.rvs(n, seed=rng), dtype=float)
    if float(times.max()) > float(values[-1]):
        return None
    return _partial(*kernel_costs_and_indices(values, times, cost_model))


def _partial(costs: np.ndarray, k: np.ndarray) -> Tuple[int, float, float, int]:
    """One chunk's ``(n, sum, m2, max_index)``.

    ``m2`` is the sum of squared deviations from the chunk's own mean, so
    no raw second moment (which cancels when the spread is tiny next to
    the mean) is ever formed.
    """
    total = float(costs.sum())
    dev = costs - total / costs.size
    return costs.size, total, float(np.dot(dev, dev)), int(k.max())


def _result_from_partials(partials, n_reservations_used: int) -> MonteCarloResult:
    """Combine per-chunk ``(n, sum, m2, max_index)`` into one estimate.

    The mean is the plain total over every sample; the ``m2`` terms merge
    by Chan et al.'s pairwise update, which adds the spread between chunk
    means instead of subtracting ``n * mean**2`` from a raw sum of squares.
    """
    n, total, m2, _ = partials[0]
    for n_b, total_b, m2_b, _ in partials[1:]:
        delta = total_b / n_b - total / n
        m2 += m2_b + delta * delta * n * n_b / (n + n_b)
        n += n_b
        total += total_b
    return MonteCarloResult(
        mean_cost=total / n,
        std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0,
        n_samples=n,
        n_reservations_used=n_reservations_used,
        max_reservations_hit=max(p[3] for p in partials) + 1,
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
    backend: ExecutionBackend | None = None,
    task_timeout: float | None = None,
    task_retries: int = 0,
) -> MonteCarloResult:
    """Estimate ``E(S)`` by averaging over ``n_samples`` sampled jobs (Eq. 13).

    With no ``backend`` (or a :class:`SerialBackend`) this is the library's
    historical serial path, bit-identical for a fixed seed.  Any other
    backend splits the samples into one chunk per worker of the pool (its
    ``jobs``; one chunk when it has none), each drawn from its own
    ``SeedSequence``-spawned stream: the estimate is still deterministic
    for a fixed ``seed`` and chunk count and *identical* on every pool (same
    streams, same kernel), but uses a different sample set than the serial
    path (they agree within the Monte-Carlo confidence interval).

    ``task_timeout``/``task_retries`` are forwarded to the backend's
    ``map`` so a hung or faulted chunk (e.g. under a ``REPRO_FAULTS``
    drill) is bounded and resubmitted instead of stalling the estimate;
    both default to the historical no-timeout, no-retry behavior.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")

    pool = _pool(backend)
    if pool is None:
        rng = as_generator(seed)
        times = distribution.rvs(n_samples, seed=rng)
        costs, k = _costs_and_indices(sequence, times, cost_model)
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
    sizes = chunk_sizes(n_samples, max(int(getattr(pool, "jobs", 1)), 1))
    metrics.inc("mc.parallel_chunks", len(sizes))
    partials = _run_chunks(
        [sequence] * len(sizes), sizes, distribution, cost_model, seed,
        pool, task_timeout, task_retries,
    )
    return _result_from_partials(partials, len(sequence))


def _pool(backend: ExecutionBackend | None) -> ExecutionBackend | None:
    """The pool to map chunks on, or None to run inline; counts the choice."""
    if isinstance(backend, SerialBackend):
        backend = None
    metrics.inc(f"mc.batch.backend.{backend.kind if backend is not None else 'serial'}")
    return backend


def _run_chunks(
    sequences: SequenceType[ReservationSequence],
    sizes: SequenceType[int],
    distribution,
    cost_model: CostModel,
    seed: SeedLike,
    pool: ExecutionBackend | None,
    task_timeout: float | None,
    task_retries: int,
) -> List[Tuple[int, float, float, int]]:
    """Draw chunk ``i`` (``sizes[i]`` samples) and cost it on ``sequences[i]``.

    Chunk ``i`` samples the ``i``-th ``SeedSequence`` spawned from ``seed``,
    so the partials do not depend on where the chunks run: inline when
    ``pool`` is None, else through ``pool.map``.  Extensible sequences are
    first extended to the coverage horizon (workers cannot run extender
    closures); a chunk that still outruns its sequence is redrawn here from
    the same stream and costed with the live extender (the
    ``mc.chunk_fallbacks`` counter), so the partial is unchanged.  Returns
    one :func:`_partial` per chunk.
    """
    children = spawn_seed_sequences(seed, len(sizes))
    horizon = _coverage_horizon(distribution)
    tasks = []
    for sequence, n, child in zip(sequences, sizes, children):
        if sequence.is_extensible:
            sequence.ensure_covers(horizon)
        values = np.array(sequence.values, dtype=float, copy=True)
        tasks.append((distribution, child, n, values, cost_model))
    if pool is None:
        partials = [_sample_and_cost_chunk(task) for task in tasks]
    else:
        partials = pool.map(
            _sample_and_cost_chunk, tasks, timeout=task_timeout, retries=task_retries
        )
    combined = []
    for sequence, n, child, partial in zip(sequences, sizes, children, partials):
        if partial is not None:
            # Worker-side counters stay in the worker; count here instead
            # (a redrawn chunk is counted by the serial kernel below).
            metrics.inc("mc.samples", n)
            combined.append(partial)
            continue
        # The chunk outran the pre-extended horizon (probability
        # ~ n * PROCESS_COVERAGE_TAIL).
        metrics.inc("mc.chunk_fallbacks")
        times = distribution.rvs(n, seed=np.random.default_rng(child))
        combined.append(_partial(*_costs_and_indices(sequence, times, cost_model)))
    return combined
