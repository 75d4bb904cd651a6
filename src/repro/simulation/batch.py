"""Batched Monte-Carlo kernels: many sequences x many samples in one pass.

The brute-force scan of Section 4.1, the verification sweep, and the service
benchmarks all evaluate *grids* of candidate sequences against a shared
sample set.  Looping :func:`repro.simulation.monte_carlo.costs_for_times`
over the grid pays the full kernel overhead (validation, ``searchsorted``
setup, prefix construction) once per sequence.  This module amortizes it
over the whole grid:

* :class:`ReservationBatch` — a padded ``(S, L)`` reservation matrix built
  from explicit rows, live sequences, or an Eq. (11) candidate grid
  (:func:`repro.core.recurrence.generate_sequence_grid`);
* :func:`batch_cost_matrix` — the **bit-identical** kernel: the full
  ``(S, N)`` per-sample cost matrix, row-for-row equal (every bit) to
  looping ``costs_for_times`` over the same rows;
* :func:`batch_expected_costs` — the **moments** kernel: per-row mean and
  standard error in ``O(S*L + N log N)`` without materializing the cost
  matrix (serial: after the one sort there is too little work left for a
  pool to pay for its dispatch; see ``docs/PERFORMANCE.md``);
* :func:`batch_best_row` — the exact (matrix-kernel) argmin row found by
  screening with the moments kernel and re-costing only the near-ties;
* :func:`monte_carlo_many` — a batch of independent Eq. (13) *estimates*
  (one per sequence, each with its own spawned sample stream), the
  coarse-grained unit that actually scales on a process pool because each
  worker both draws and costs its chunk.

How the batched kernel works: sort the samples once (``ts``), then
``searchsorted(ts, matrix, side="right")`` counts, for every reservation of
every row, how many samples it covers — exact integer ranks, no float
arithmetic that could perturb bit-identity.  Differences along the row give
``counts[s, l]`` (samples whose first covering reservation is ``l``), from
which either the explicit index matrix (matrix kernel) or per-row cost
moments (moments kernel) follow.

``monte_carlo_many`` is the one pooled kernel here: ``backend`` is None
(inline) or an :class:`repro.service.pool.ExecutionBackend` its caller
built and closes; the choice is counted under ``mc.batch.backend.<kind>``.
It shares its chunk runner — spawned streams, pre-extension, and the
redraw of a chunk that outruns its sequence — with the pooled
single-sequence estimate of :mod:`repro.simulation.monte_carlo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence as SequenceType

import numpy as np

from repro.core.cost import CostModel
from repro.core.recurrence import generate_sequence_grid
from repro.core.sequence import ReservationSequence
from repro.observability import metrics
from repro.service.pool import ExecutionBackend
from repro.simulation.monte_carlo import (
    MonteCarloResult,
    _pool,
    _result_from_partials,
    _run_chunks,
)
from repro.utils.rng import SeedLike

__all__ = [
    "ReservationBatch",
    "BatchCostSummary",
    "batch_cost_matrix",
    "batch_expected_costs",
    "batch_best_row",
    "screen_margin",
    "monte_carlo_many",
    "MATRIX_KERNEL_MAX_ELEMENTS",
]

#: Soft cap on ``S * N`` for the matrix kernel (it materializes an
#: ``(S, N)`` float64 matrix — 8 bytes per element).  Callers that only
#: need means should switch to the moments kernel beyond this.
MATRIX_KERNEL_MAX_ELEMENTS = 20_000_000


@dataclass(frozen=True)
class ReservationBatch:
    """A grid of reservation sequences as one padded matrix.

    ``matrix`` is ``(S, L)`` float64; row ``s`` holds ``lengths[s]`` real
    reservations followed by ``inf`` padding (``inf`` sorts after every
    sample, so padded columns never capture counts).  ``feasible[s]`` is
    False for rows that have no valid sequence (e.g. Eq. (11) breakdowns —
    the Fig. 3 gaps); such rows are all-``inf`` and are skipped by the
    kernels.
    """

    matrix: np.ndarray
    lengths: np.ndarray
    feasible: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.matrix.shape}")
        if self.lengths.shape != (self.matrix.shape[0],):
            raise ValueError("lengths must have one entry per row")
        if self.feasible.shape != (self.matrix.shape[0],):
            raise ValueError("feasible must have one entry per row")

    @property
    def n_sequences(self) -> int:
        return self.matrix.shape[0]

    def last_reservations(self) -> np.ndarray:
        """Per-row final real reservation (``-inf`` for infeasible rows)."""
        rows = np.arange(self.n_sequences)
        idx = np.maximum(self.lengths - 1, 0)
        last = self.matrix[rows, idx]
        return np.where(self.feasible & (self.lengths > 0), last, -np.inf)

    def covers(self, horizon: float) -> np.ndarray:
        """Boolean mask: which feasible rows cover ``horizon``."""
        return self.last_reservations() >= horizon

    def row_values(self, s: int) -> np.ndarray:
        """Row ``s``'s real reservations (no padding)."""
        return self.matrix[s, : int(self.lengths[s])].copy()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: SequenceType[np.ndarray]) -> "ReservationBatch":
        """Pack explicit per-sequence reservation arrays into a batch."""
        if not len(rows):
            raise ValueError("need at least one row")
        arrays = [np.asarray(r, dtype=float).ravel() for r in rows]
        lengths = np.array([a.size for a in arrays])
        if (lengths == 0).any():
            raise ValueError("rows must be non-empty")
        width = int(lengths.max())
        matrix = np.full((len(arrays), width), np.inf)
        for s, a in enumerate(arrays):
            matrix[s, : a.size] = a
        feasible = np.ones(len(arrays), dtype=bool)
        return cls(matrix=matrix, lengths=lengths, feasible=feasible)

    @classmethod
    def from_sequences(
        cls,
        sequences: SequenceType[ReservationSequence],
        cover: Optional[float] = None,
    ) -> "ReservationBatch":
        """Materialize live sequences (extending each to ``cover`` first)."""
        if cover is not None:
            for seq in sequences:
                seq.ensure_covers(float(cover))
        return cls.from_rows([np.asarray(seq.values) for seq in sequences])

    @classmethod
    def from_grid(
        cls,
        t1s: np.ndarray,
        distribution,
        cost_model: CostModel,
        cover: float,
    ) -> "ReservationBatch":
        """Run the Eq. (11) recurrence for every candidate ``t_1`` in
        lockstep (see :func:`repro.core.recurrence.generate_sequence_grid`);
        infeasible candidates become infeasible rows instead of exceptions."""
        matrix, lengths, feasible = generate_sequence_grid(
            t1s, distribution, cost_model, cover
        )
        return cls(matrix=matrix, lengths=lengths, feasible=feasible)


@dataclass(frozen=True)
class BatchCostSummary:
    """Per-row Eq. (13) moments from :func:`batch_expected_costs`.

    Infeasible rows hold ``nan`` mean/std-error and ``max_index`` -1.
    """

    mean_cost: np.ndarray
    std_error: np.ndarray
    max_index: np.ndarray
    feasible: np.ndarray
    n_samples: int

    def best_row(self) -> int:
        """Index of the feasible row with the lowest mean cost."""
        if not self.feasible.any():
            raise ValueError("no feasible rows to choose from")
        means = np.where(self.feasible, self.mean_cost, np.inf)
        return int(np.argmin(means))


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

def _rank_counts(matrix: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(row, reservation) sample counts against sorted samples ``ts``.

    ``ranks[s, l]`` = number of samples ``<= matrix[s, l]``; first
    differences along the row give ``counts[s, l]`` = number of samples
    whose *first* covering reservation is ``l``.  Pure integer ranks —
    exact, regardless of float magnitudes.
    """
    S, L = matrix.shape
    ranks = np.searchsorted(ts, matrix.ravel(), side="right").reshape(S, L)
    counts = np.diff(ranks, axis=1, prepend=0)
    return ranks, counts


def _failure_prefix(matrix: np.ndarray, cost_model: CostModel) -> np.ndarray:
    """Row-wise exclusive prefix of failed-reservation costs.

    ``prefix[s, l]`` = total cost of row ``s``'s first ``l`` reservations,
    all failed — the same cumulative sum the serial kernel builds, one row
    at a time (``np.cumsum`` is sequential along the axis, so each row is
    bit-identical to its 1-D counterpart).  ``inf`` padding overflows
    harmlessly past every reachable index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        failure_costs = (
            cost_model.alpha + cost_model.beta
        ) * matrix + cost_model.gamma
        body = np.cumsum(failure_costs, axis=1)[:, :-1]
    return np.concatenate([np.zeros((matrix.shape[0], 1)), body], axis=1)


def batch_cost_matrix(
    batch: ReservationBatch,
    times: np.ndarray,
    cost_model: CostModel,
) -> np.ndarray:
    """The full ``(S, N)`` cost matrix, bit-identical to the serial kernel.

    Row ``s`` equals ``costs_for_times(sequence_s, times, cost_model)``
    *exactly* (every bit): the covering index of each sample is recovered
    from integer rank counts, and the final cost expression gathers the same
    operands (prefix, reservation value, sample, constants) and combines
    them in the same left-to-right order as the serial kernel.  All feasible
    rows must already cover ``times.max()``.  Infeasible rows come back as
    ``nan``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a non-empty 1-D array of execution times")
    if np.any(times < 0):
        raise ValueError("execution times must be nonnegative")
    S, L = batch.matrix.shape
    N = times.size
    _check_coverage(batch, float(times.max()))
    metrics.inc("mc.batch.calls")
    metrics.inc("mc.batch.sequences", S)
    metrics.inc("mc.batch.samples", S * N)

    with metrics.timer("mc.batch.matrix_kernel"):
        order = np.argsort(times, kind="stable")
        ts = times[order]
        _, counts = _rank_counts(batch.matrix, ts)
        # counts rows always sum to N (inf padding ranks as N), so this
        # reshape is exact; infeasible all-inf rows dump every sample on
        # column 0, fixed up below.
        k_sorted = np.repeat(np.tile(np.arange(L), S), counts.ravel()).reshape(S, N)
        prefix = _failure_prefix(batch.matrix, cost_model)
        flat = k_sorted + (np.arange(S)[:, None] * L)
        prefix_k = prefix.ravel().take(flat)
        value_k = batch.matrix.ravel().take(flat)
        # Same operand order as the serial kernel:
        #   prefix[k] + alpha * values[k] + beta * t + gamma
        costs_sorted = (
            prefix_k
            + cost_model.alpha * value_k
            + cost_model.beta * ts
            + cost_model.gamma
        )
        out = np.empty((S, N))
        out[:, order] = costs_sorted
    out[~batch.feasible] = np.nan
    return out


def _moments_kernel(
    matrix: np.ndarray, ts: np.ndarray, cost_model: CostModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(sum, std, max_index)`` without the cost matrix.

    For row ``s`` with per-reservation counts ``c_l`` and base cost
    ``a_l = prefix_l + alpha * v_l + gamma`` (everything except the
    ``beta * t`` term, constant within a count bucket):

    ``sum = sum_l c_l a_l + beta * sum(ts)``

    The sample standard deviation is taken about the row mean ``m`` and in
    units of the row's largest possible cost ``s = max_l a_l + beta *
    max(ts)`` (every per-sample cost, hence every ``|x - m|``, is at most
    ``s``).  With ``d_l = (a_l - m) / s``, ``b = beta * max(ts) / s`` and
    the samples scaled to ``u = t / max(ts)``, bucket ``l`` contributes

    ``c_l d_l^2 + 2 b d_l sum_l(u) + b^2 sum_l(u^2)``

    where the bucket sums are differences of sorted-sample prefix sums at
    the bucket's rank boundaries.  Every term is O(1): nothing can overflow
    (rows whose costs pass 1e154 keep a finite standard error), and the
    variance is never a difference of two large raw moments.  ``O(S*L)``
    after the shared ``O(N log N)`` sort.
    """
    n = ts.size
    ranks, counts = _rank_counts(matrix, ts)
    prefix = _failure_prefix(matrix, cost_model)
    top = float(ts[-1]) if ts[-1] > 0 else 1.0
    unit = ts / top
    csum_u = np.concatenate([[0.0], np.cumsum(unit)])
    csum_uu = np.concatenate([[0.0], np.cumsum(unit * unit)])
    beta = cost_model.beta
    with np.errstate(over="ignore", invalid="ignore"):
        base = prefix + cost_model.alpha * matrix + cost_model.gamma
        # Padding columns are inf with zero counts; 0 * inf would be nan.
        base = np.where(counts > 0, base, 0.0)
        sums = (counts * base).sum(axis=1) + beta * np.cumsum(ts)[-1]
        if n > 1:
            scale = base.max(axis=1) + beta * top
            scale = np.where(scale > 0.0, scale, 1.0)[:, None]
            d = (base - (sums / n)[:, None]) / scale
            b = beta * top / scale
            seg = np.diff(csum_u[ranks], axis=1, prepend=0.0)
            seg_sq = np.diff(csum_uu[ranks], axis=1, prepend=0.0)
            ss = (counts * d * d + 2.0 * b * d * seg + b * b * seg_sq).sum(axis=1)
            std = scale[:, 0] * np.sqrt(np.maximum(ss, 0.0) / (n - 1))
        else:
            std = np.zeros(matrix.shape[0])
    hit = counts > 0
    max_index = hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
    return sums, std, max_index


def _check_coverage(batch: ReservationBatch, horizon: float) -> None:
    uncovered = batch.feasible & ~batch.covers(horizon)
    if uncovered.any():
        rows = np.nonzero(uncovered)[0][:5].tolist()
        raise ValueError(
            f"feasible rows {rows} do not cover the largest sample "
            f"({horizon:g}); extend them (ReservationBatch.from_sequences"
            f"(cover=...) or a larger grid cover) before batch costing"
        )


def batch_expected_costs(
    batch: ReservationBatch,
    times: np.ndarray,
    cost_model: CostModel,
) -> BatchCostSummary:
    """Eq. (13) mean and standard error for every row against shared samples.

    The moments kernel never materializes the ``(S, N)`` cost matrix, so
    grids far beyond :data:`MATRIX_KERNEL_MAX_ELEMENTS` are fine.  Row means
    agree with the bit-identical matrix kernel to ~1 ulp (the summation is
    regrouped by count bucket); tests comparing against looped serial calls
    should use :func:`batch_cost_matrix` for exact equality and this
    function with a tolerance.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a non-empty 1-D array of execution times")
    if np.any(times < 0):
        raise ValueError("execution times must be nonnegative")
    S = batch.n_sequences
    N = times.size
    _check_coverage(batch, float(times.max()))
    metrics.inc("mc.batch.calls")
    metrics.inc("mc.batch.sequences", S)
    metrics.inc("mc.batch.samples", S * N)

    feasible_rows = np.nonzero(batch.feasible)[0]
    order = np.argsort(times, kind="stable")
    ts = times[order]
    if feasible_rows.size == 0:
        sums = std = np.empty(0)
        max_index = np.empty(0, dtype=int)
    else:
        with metrics.timer("mc.batch.kernel"):
            sums, std, max_index = _moments_kernel(
                batch.matrix[feasible_rows], ts, cost_model
            )

    mean = np.full(S, np.nan)
    std_error = np.full(S, np.nan)
    max_idx = np.full(S, -1, dtype=int)
    if feasible_rows.size:
        mean[feasible_rows] = sums / N
        std_error[feasible_rows] = std / np.sqrt(N)
        max_idx[feasible_rows] = max_index
    return BatchCostSummary(
        mean_cost=mean,
        std_error=std_error,
        max_index=max_idx,
        feasible=batch.feasible.copy(),
        n_samples=N,
    )


def screen_margin(n_samples: int, width: int) -> float:
    """Relative margin of the moments screen in :func:`batch_best_row`.

    Both kernels average the same ``N`` nonnegative per-sample costs (the
    cost model enforces ``alpha > 0``, ``beta, gamma >= 0``; samples and
    reservations are ``>= 0``).  A floating-point sum of nonnegative terms,
    each already carrying a relative error of at most ``gamma_a``, in any
    summation order, is within ``gamma_{a+k-1}`` of the exact sum of its
    ``k`` terms (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Lemma 3.1 and Sec. 4.2; ``gamma_n = n u / (1 - n u)``, ``u = 2^-53``).
    Counting the roundings, for rows of width ``L``:

    * matrix kernel: failure prefix ``gamma_{L+1}``, the per-sample cost
      expression ``gamma_{L+4}``, the sum over ``N`` samples and the
      division ``gamma_{N+L+4}``;
    * moments kernel: base costs ``gamma_{L+3}``, times the integer counts
      and summed over ``L`` buckets ``gamma_{2L+3}``; ``beta * cumsum(ts)``
      ``gamma_N``; the final add and division ``gamma_{max(2L,N)+5}``.

    So with ``e = gamma_n``, ``n = N + 2L + 5``, both means lie within a
    factor ``1 +- e`` of the exact mean ``mu``.  If row ``s`` holds the
    exact argmin ``m_s <= m_w`` of the matrix means and ``w`` the screened
    argmin, then ``screened_s <= (1+e) mu_s <= (1+e)/(1-e) m_s <= ...
    <= ((1+e)/(1-e))^2 screened_w``: the returned relative margin is
    ``((1+e)/(1-e))^2 - 1 = 4e / (1-e)^2``.  It is at least ``32 u``, so
    the caller doubles it to cover the two roundings of forming the
    threshold.  (The bound assumes no overflow or underflow on finite rows.)
    """
    n = n_samples + 2 * width + 5
    unit = np.finfo(float).eps / 2.0
    e = n * unit / (1.0 - n * unit)
    return 4.0 * e / (1.0 - e) ** 2


def batch_best_row(
    batch: ReservationBatch,
    times: np.ndarray,
    cost_model: CostModel,
) -> tuple[int, float]:
    """First feasible row with the lowest exact mean cost, and that mean.

    The answer is the one (every bit, first index on ties) of the argmin of
    ``batch_cost_matrix(batch, times, cost_model).mean(axis=1)`` over the
    feasible rows, without building the ``(S, N)`` matrix: the moments
    kernel (:func:`batch_expected_costs`) screens
    every row, only the rows whose screened mean is within
    :func:`screen_margin` of the screened minimum are re-costed with the
    matrix kernel, and the first argmin among them wins.  Exact ties
    survive the screen, and so do rows whose screened mean is not finite;
    if the screened minimum itself is not finite every feasible row is
    re-costed.  Survivors are counted under ``mc.batch.screen_survivors``.
    """
    times = np.asarray(times, dtype=float)
    screened = batch_expected_costs(batch, times, cost_model)
    if not batch.feasible.any():
        raise ValueError("no feasible rows to choose from")
    means = screened.mean_cost
    keep = batch.feasible.copy()
    lowest = float(np.min(means[keep]))
    if np.isfinite(lowest):
        margin = screen_margin(times.size, batch.matrix.shape[1])
        threshold = lowest * (1.0 + 2.0 * margin)
        keep &= (means <= threshold) | ~np.isfinite(means)
    rows = np.nonzero(keep)[0]
    metrics.inc("mc.batch.screen_survivors", rows.size)
    survivors = ReservationBatch(
        matrix=batch.matrix[rows],
        lengths=batch.lengths[rows],
        feasible=np.ones(rows.size, dtype=bool),
    )
    with np.errstate(over="ignore"):
        # A surviving row with an infinite screened mean overflows here too.
        exact = batch_cost_matrix(survivors, times, cost_model).mean(axis=1)
    best = int(np.argmin(exact))
    return int(rows[best]), float(exact[best])


# ----------------------------------------------------------------------
# Coarse-grained batch of independent estimates
# ----------------------------------------------------------------------

def monte_carlo_many(
    sequences: SequenceType[ReservationSequence],
    distribution,
    cost_model: CostModel,
    n_samples: int = 1000,
    seed: SeedLike = None,
    backend: Optional[ExecutionBackend] = None,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
) -> List[MonteCarloResult]:
    """Independent Eq. (13) estimates for many sequences, one task each.

    Every sequence gets its own ``SeedSequence``-spawned sample stream, and
    each pool task draws *and* costs its chunk — sampling parallelizes too,
    which is what lets the process backend beat the serial loop on whole
    planning workloads (one fine-grained 10k-sample estimate alone is
    dominated by serial sampling; see ``docs/PERFORMANCE.md``).

    **Backend-invariant:** results are bit-identical with no backend and on
    serial, thread, process and caller-supplied backends for a fixed
    ``(seed, n_samples)`` — every backend runs the same per-sequence task on
    the same spawned stream; only where it runs changes.
    """
    if not len(sequences):
        raise ValueError("need at least one sequence")
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    metrics.inc("mc.batch.calls")
    metrics.inc("mc.batch.sequences", len(sequences))
    metrics.inc("mc.batch.samples", len(sequences) * n_samples)
    metrics.inc("mc.batch.tasks", len(sequences))
    partials = _run_chunks(
        sequences, [n_samples] * len(sequences), distribution, cost_model,
        seed, _pool(backend), task_timeout, task_retries,
    )
    return [
        _result_from_partials([partial], len(sequence))
        for sequence, partial in zip(sequences, partials)
    ]
