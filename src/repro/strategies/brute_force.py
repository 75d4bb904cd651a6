"""BRUTE-FORCE heuristic (Section 4.1).

Scan ``M`` candidate values of the first reservation ``t_1`` over the search
interval (``[a, b]`` for bounded supports, ``[a, A_1]`` otherwise, with
``A_1`` the Theorem 2 bound), generate the rest of each candidate sequence
with the Eq. (11) recurrence, score every *valid* candidate, and keep the
best.  Candidates whose recurrence stops increasing are infeasible and are
skipped — these are the gaps of Fig. 3.

Scoring follows the paper's Monte-Carlo process (Eq. 13) with ``N`` samples;
the same sample set is reused across candidates (common random numbers), so
the scan is a fair comparison and the complexity is O(M N).  Finding only
the winner (:meth:`BruteForce.sequence`) screens the grid in O(M L + N log N)
and re-costs just the near-ties.  An exact variant scores with the
Theorem 1 series instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np

from repro.core.bounds import t1_search_interval
from repro.core.cost import CostModel
from repro.core.expectation import expected_cost_series
from repro.core.recurrence import (
    RecurrenceError,
    next_reservation,
    optimal_sequence_from_t1,
)
from repro.core.sequence import ReservationSequence, SequenceError
from repro.observability import metrics, tracing
from repro.simulation.batch import (
    MATRIX_KERNEL_MAX_ELEMENTS,
    ReservationBatch,
    batch_best_row,
    batch_cost_matrix,
    batch_expected_costs,
)
from repro.simulation.monte_carlo import costs_for_times
from repro.strategies.base import Strategy
from repro.utils.rng import SeedLike, as_generator

__all__ = ["BruteForce", "BruteForceScan", "ScanPoint"]


@dataclass(frozen=True)
class ScanPoint:
    """One candidate ``t_1`` with its estimated expected cost.

    ``expected_cost`` is ``None`` when the Eq. (11) sequence from this ``t_1``
    is invalid (non-increasing) — rendered as "(-)" in Table 3.
    """

    t1: float
    expected_cost: Optional[float]

    @property
    def feasible(self) -> bool:
        return self.expected_cost is not None


@dataclass(frozen=True)
class BruteForceScan:
    """Full scan output (drives Table 3 and Fig. 3)."""

    points: List[ScanPoint]
    best_t1: float
    best_cost: float
    interval: tuple[float, float]

    @property
    def feasible_fraction(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.feasible for p in self.points) / len(self.points)


class BruteForce(Strategy):
    """Grid search over ``t_1`` + Eq. (11) completion (paper Section 4.1).

    In Monte-Carlo mode the Eq. (11) recurrence runs for the whole grid in
    lockstep.  :meth:`scan` costs every (candidate, sample) pair with the
    bit-identical matrix kernel, because Table 3 and Fig. 3 print every
    point.  :meth:`sequence` needs only the winner: it screens the grid with
    the ``O(M L + N log N)`` moments kernel and re-costs with the matrix
    kernel only the candidates whose screened mean is within a relative
    margin of the screened minimum
    (:func:`~repro.simulation.batch.batch_best_row`).  Both kernels average
    the same ``N`` nonnegative per-sample costs, so by Higham's bound for
    such sums each mean is within a factor ``1 +- gamma_n`` of the exact
    one (``n = N + 2L + 5`` for sequences of ``L`` reservations), and the
    margin ``((1 + gamma_n) / (1 - gamma_n))^2 - 1``
    (:func:`~repro.simulation.batch.screen_margin`) cannot drop the matrix
    argmin: winner and cost are the scan's, every bit, first index on ties.

    Parameters
    ----------
    m_grid:
        Number of ``t_1`` candidates (paper: 5000).
    n_samples:
        Monte-Carlo samples per candidate (paper: 1000).
    evaluation:
        ``"monte_carlo"`` (paper's method) or ``"series"`` (exact Theorem 1
        series, one candidate at a time; deterministic, slower).
    seed:
        RNG seed for the shared Monte-Carlo sample set.
    """

    name = "brute_force"

    def __init__(
        self,
        m_grid: int = 5000,
        n_samples: int = 1000,
        evaluation: Literal["monte_carlo", "series"] = "monte_carlo",
        seed: SeedLike = None,
    ):
        if m_grid < 1:
            raise ValueError(f"m_grid must be >= 1, got {m_grid}")
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if evaluation not in ("monte_carlo", "series"):
            raise ValueError(f"unknown evaluation mode {evaluation!r}")
        self.m_grid = m_grid
        self.n_samples = n_samples
        self.evaluation = evaluation
        self.seed = seed

    # ------------------------------------------------------------------
    def candidate_cost(
        self,
        t1: float,
        distribution,
        cost_model: CostModel,
        samples: Optional[np.ndarray] = None,
    ) -> Optional[float]:
        """Expected cost of the Eq. (11) sequence from ``t1``; ``None`` if
        infeasible."""
        try:
            if samples is not None:
                # Lazy generation: the candidate only has to cover the
                # largest sampled execution time (the paper's procedure).
                seq = optimal_sequence_from_t1(t1, distribution, cost_model)
                return float(costs_for_times(seq, samples, cost_model).mean())
            # Exact series: the candidate must cover the whole tail.
            seq = optimal_sequence_from_t1(t1, distribution, cost_model, eager=True)
            return expected_cost_series(seq, distribution, cost_model)
        except (RecurrenceError, SequenceError):
            return None

    def _monte_carlo_grid(
        self, distribution, cost_model: CostModel, samples: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, ReservationBatch, tuple[float, float]]:
        """``(samples, t1s, grid, interval)`` of a Monte-Carlo scan.

        Draws the shared sample set unless the caller passed one, runs the
        Eq. (11) recurrence for every candidate in lockstep up to the
        largest sample, and counts the candidates.
        """
        lo, hi = t1_search_interval(distribution, cost_model)
        if samples is None:
            samples = distribution.rvs(self.n_samples, seed=as_generator(self.seed))
        else:
            samples = np.asarray(samples, dtype=float)
        # Paper's grid: t1 = a + m (b-a)/M for m = 1..M (skips the
        # degenerate left endpoint, includes the right one); the same float
        # expression as the series loop.
        m = np.arange(1, self.m_grid + 1, dtype=float)
        t1s = lo + m * (hi - lo) / self.m_grid
        grid = ReservationBatch.from_grid(
            t1s, distribution, cost_model, float(samples.max())
        )
        n_feasible = int(grid.feasible.sum())
        metrics.inc("brute_force.candidates", t1s.size)
        metrics.inc("brute_force.feasible_candidates", n_feasible)
        if n_feasible == 0:
            raise SequenceError(
                f"BRUTE-FORCE found no feasible t1 in [{lo}, {hi}] for "
                f"{distribution.describe()}"
            )
        return samples, t1s, grid, (lo, hi)

    def scan(
        self,
        distribution,
        cost_model: CostModel,
        samples: Optional[np.ndarray] = None,
    ) -> BruteForceScan:
        """Evaluate all ``m_grid`` candidates and return the full landscape.

        ``samples`` (monte_carlo mode only) lets a caller score the scan on a
        shared sample set — common random numbers across strategies, as in
        the Table 2 / Fig. 4 comparisons.
        """
        if self.evaluation == "monte_carlo":
            return self._monte_carlo_scan(distribution, cost_model, samples)
        if samples is not None:
            raise ValueError("samples are only meaningful in monte_carlo mode")

        lo, hi = t1_search_interval(distribution, cost_model)
        points: List[ScanPoint] = []
        best_t1, best_cost = math.nan, math.inf
        with tracing.span(
            "strategy.brute_force.scan", m_grid=self.m_grid, lo=lo, hi=hi
        ) as sp:
            for m in range(1, self.m_grid + 1):
                t1 = lo + m * (hi - lo) / self.m_grid
                cost = self.candidate_cost(t1, distribution, cost_model)
                points.append(ScanPoint(t1=t1, expected_cost=cost))
                if cost is not None and cost < best_cost:
                    best_t1, best_cost = t1, cost
            n_feasible = sum(p.feasible for p in points)
            metrics.inc("brute_force.candidates", len(points))
            metrics.inc("brute_force.feasible_candidates", n_feasible)
            if sp is not None:
                sp.set("feasible", n_feasible)
                sp.set("best_t1", best_t1)
        if not math.isfinite(best_cost):
            raise SequenceError(
                f"BRUTE-FORCE found no feasible t1 in [{lo}, {hi}] for "
                f"{distribution.describe()}"
            )
        return BruteForceScan(
            points=points, best_t1=best_t1, best_cost=best_cost, interval=(lo, hi)
        )

    def _monte_carlo_scan(
        self, distribution, cost_model: CostModel, samples: Optional[np.ndarray]
    ) -> BruteForceScan:
        """Vectorized scan: lockstep Eq. (11) grid + one batched costing pass.

        Uses the bit-identical matrix kernel (so winner and per-point costs
        match a per-candidate :meth:`candidate_cost` loop exactly, ties
        included) while the grid fits in
        :data:`repro.simulation.batch.MATRIX_KERNEL_MAX_ELEMENTS`; larger
        grids fall back to the O(S*L) moments kernel, whose means agree to
        ~1 ulp.
        """
        with tracing.span(
            "strategy.brute_force.scan", m_grid=self.m_grid, batch=True
        ) as sp:
            samples, t1s, grid, interval = self._monte_carlo_grid(
                distribution, cost_model, samples
            )
            if grid.n_sequences * samples.size <= MATRIX_KERNEL_MAX_ELEMENTS:
                costs = batch_cost_matrix(grid, samples, cost_model)
                # A row whose costs overflow is a real but unaffordable
                # candidate: its inf mean never wins while a finite row exists.
                with np.errstate(over="ignore"):
                    means = costs.mean(axis=1)
            else:
                means = batch_expected_costs(grid, samples, cost_model).mean_cost
            points = [
                ScanPoint(
                    t1=float(t1s[i]),
                    expected_cost=float(means[i]) if grid.feasible[i] else None,
                )
                for i in range(t1s.size)
            ]
            # argmin picks the first minimal index — the same winner as a
            # scalar loop's strict-improvement update.
            best = int(np.argmin(np.where(grid.feasible, means, np.inf)))
            if sp is not None:
                sp.set("feasible", int(grid.feasible.sum()))
                sp.set("best_t1", float(t1s[best]))
        return BruteForceScan(
            points=points,
            best_t1=float(t1s[best]),
            best_cost=float(means[best]),
            interval=interval,
        )

    def best_candidate(
        self,
        distribution,
        cost_model: CostModel,
        samples: Optional[np.ndarray] = None,
    ) -> tuple[float, float]:
        """The winning ``(t_1, expected cost)``, equal to :meth:`scan`'s.

        Monte-Carlo mode finds it with the moments screen (see the class
        docstring) instead of the full matrix; series mode runs the scan.
        """
        if self.evaluation != "monte_carlo":
            scan = self.scan(distribution, cost_model, samples=samples)
            return scan.best_t1, scan.best_cost
        with tracing.span(
            "strategy.brute_force.search", m_grid=self.m_grid
        ) as sp:
            samples, t1s, grid, _ = self._monte_carlo_grid(
                distribution, cost_model, samples
            )
            best, best_cost = batch_best_row(grid, samples, cost_model)
            if sp is not None:
                sp.set("feasible", int(grid.feasible.sum()))
                sp.set("best_t1", float(t1s[best]))
        return float(t1s[best]), best_cost

    def sequence(
        self,
        distribution,
        cost_model: CostModel,
        samples: Optional[np.ndarray] = None,
    ) -> ReservationSequence:
        best_t1, _ = self.best_candidate(distribution, cost_model, samples=samples)
        return self._sequence_from_t1(best_t1, distribution, cost_model)

    def sequence_from_scan(
        self, scan: BruteForceScan, distribution, cost_model: CostModel
    ) -> ReservationSequence:
        """Materialize the winning sequence of an existing scan."""
        return self._sequence_from_t1(scan.best_t1, distribution, cost_model)

    def _sequence_from_t1(
        self, t1: float, distribution, cost_model: CostModel
    ) -> ReservationSequence:
        """The Eq. (11) sequence from a winning ``t1``, extensible past the
        range the scan validated."""
        inner = optimal_sequence_from_t1(t1, distribution, cost_model)
        hi = distribution.upper

        def extend(current: np.ndarray) -> float:
            # Eq. (11) first; if the recurrence collapses beyond the range the
            # scan validated (possible for near-separatrix winners), fall back
            # to the conditional-expectation step, then doubling.  Any strictly
            # increasing tail completion keeps the sequence valid (Sec. 4.2.2).
            prev = float(current[-1])
            try:
                nxt = next_reservation(
                    float(current[-2]) if current.size >= 2 else 0.0,
                    prev,
                    distribution,
                    cost_model,
                )
                if np.isfinite(nxt) and nxt > prev:
                    return min(nxt, hi) if math.isfinite(hi) else nxt
            except (RecurrenceError, SequenceError):
                pass
            if math.isfinite(hi):
                return hi
            try:
                nxt = float(distribution.conditional_expectation(prev))
            except (ValueError, ArithmeticError):
                # SupportError (tau at/past the support edge) or a numeric
                # blowup in the quadrature fallback; double instead.  Other
                # exception types are bugs and must propagate.
                nxt = prev * 2.0
            return nxt if nxt > prev else prev * 2.0

        extender = None if inner.last >= hi else extend
        seq = ReservationSequence(inner.values, extend=extender, name=self.name)
        return seq
