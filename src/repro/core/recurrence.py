"""Optimal-sequence recurrence (Theorem 3 / Proposition 1, Eq. 11).

Given the first reservation ``t_1``, every later reservation of an *optimal*
sequence is pinned down by

``t_i = (1 - F(t_{i-2})) / f(t_{i-1})
        + (beta/alpha) * ((1 - F(t_{i-1})) / f(t_{i-1}) - t_{i-1})
        - gamma / alpha``

so the whole STOCHASTIC problem reduces to a one-dimensional search over
``t_1``.  Not every ``t_1`` yields a valid (strictly increasing) sequence —
the paper discards those candidates (the gaps in Fig. 3) and so do we, by
raising :class:`RecurrenceError` with the failing index.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence, SequenceError
from repro.observability import metrics
from repro.utils.numeric import MONOTONE_ATOL

__all__ = [
    "RecurrenceError",
    "next_reservation",
    "generate_optimal_sequence",
    "generate_sequence_grid",
    "optimal_sequence_from_t1",
]

#: Stop growing a materialized prefix once the survival probability at the
#: latest reservation is below this (the expected-cost series ignores the
#: remainder anyway); the extender keeps the recurrence alive past it.
PREFIX_TAIL_TOL = 1e-12

#: Hard cap on the prefix length generated eagerly.
MAX_PREFIX = 10_000


class RecurrenceError(SequenceError):
    """The Eq. (11) recurrence broke down (non-increasing / non-finite)."""

    def __init__(self, message: str, index: int, values: Optional[List[float]] = None):
        super().__init__(message)
        self.index = index
        self.values = values or []


def next_reservation(
    t_prev2: float,
    t_prev1: float,
    distribution,
    cost_model: CostModel,
) -> float:
    """One step of Eq. (11): compute ``t_i`` from ``t_{i-2}, t_{i-1}``."""
    metrics.inc("recurrence.iterations")
    f = float(distribution.pdf(t_prev1))
    if not np.isfinite(f) or f <= 0.0:
        raise RecurrenceError(
            f"density vanished at t={t_prev1} (f={f}); Eq. (11) undefined",
            index=-1,
        )
    sf_prev2 = float(distribution.sf(t_prev2))
    sf_prev1 = float(distribution.sf(t_prev1))
    a, b, g = cost_model.alpha, cost_model.beta, cost_model.gamma
    return sf_prev2 / f + (b / a) * (sf_prev1 / f - t_prev1) - g / a


def generate_optimal_sequence(
    t1: float,
    distribution,
    cost_model: CostModel,
    tail_tol: float = PREFIX_TAIL_TOL,
    max_len: int = MAX_PREFIX,
) -> List[float]:
    """Materialize the Eq. (11) sequence started at ``t1`` as a list.

    Generation stops when either (a) a reservation reaches the distribution's
    upper bound (bounded support: ``F(t_i) = 1``), or (b) the survival
    probability falls below ``tail_tol`` (unbounded support: the cost series
    has converged).  Raises :class:`RecurrenceError` if the recurrence stalls
    or decreases, which marks ``t1`` as infeasible (Fig. 3 gaps).
    """
    lo, hi = distribution.support()
    t1 = float(t1)
    if t1 <= 0.0:
        raise RecurrenceError(f"t1 must be positive, got {t1}", index=0)
    if t1 >= hi:
        # A single reservation at (or beyond) the upper bound covers all jobs.
        return [min(t1, hi)]

    values: List[float] = [t1]
    prev2, prev1 = 0.0, t1
    while True:
        if len(values) >= max_len:
            raise RecurrenceError(
                f"recurrence from t1={t1} exceeded {max_len} terms "
                f"(last={prev1}, survival={float(distribution.sf(prev1)):.3g})",
                index=len(values),
                values=values,
            )
        try:
            nxt = next_reservation(prev2, prev1, distribution, cost_model)
        except RecurrenceError as exc:
            raise RecurrenceError(str(exc), index=len(values), values=values) from None
        if not np.isfinite(nxt):
            raise RecurrenceError(
                f"recurrence from t1={t1} produced non-finite t_{len(values) + 1}",
                index=len(values),
                values=values,
            )
        if nxt >= hi:
            # Bounded support: clamp the final reservation to the bound.
            values.append(hi)
            return values
        if nxt <= prev1 + MONOTONE_ATOL:
            raise RecurrenceError(
                f"recurrence from t1={t1} stopped increasing at index "
                f"{len(values)}: t={prev1} -> {nxt}",
                index=len(values),
                values=values,
            )
        values.append(nxt)
        prev2, prev1 = prev1, nxt
        if float(distribution.sf(prev1)) < tail_tol:
            return values


def generate_sequence_grid(
    t1s: np.ndarray,
    distribution,
    cost_model: CostModel,
    cover: float,
    max_len: int = MAX_PREFIX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Eq. (11) for *every* candidate ``t_1`` in lockstep.

    Returns ``(matrix, lengths, feasible)``: ``matrix`` is an ``(S, L)``
    array whose row ``s`` holds candidate ``s``'s reservations padded with
    ``inf``; ``lengths[s]`` is the number of real entries; ``feasible[s]``
    is False exactly when the per-candidate lazy path
    (:func:`optimal_sequence_from_t1` + ``ensure_covers(cover)``) would have
    raised.  Feasible rows are **bit-identical** to the lazy path: each step
    evaluates the same clamp-then-monotonicity checks on the same scalar
    expression, just broadcast over the still-active candidates, so one
    vectorized pdf/sf evaluation per *depth* replaces one per
    (candidate, depth) pair.

    ``cover`` follows the lazy semantics of the brute-force scan: a row is
    complete as soon as its last reservation reaches ``cover`` (the largest
    Monte-Carlo sample), not the distribution's tail.
    """
    t1s = np.asarray(t1s, dtype=float)
    if t1s.ndim != 1 or t1s.size == 0:
        raise ValueError("t1s must be a non-empty 1-D array")
    n_candidates = t1s.size
    metrics.inc("recurrence.grid_candidates", n_candidates)
    hi = float(distribution.upper)
    a, b, g = cost_model.alpha, cost_model.beta, cost_model.gamma

    first = np.minimum(t1s, hi) if np.isfinite(hi) else t1s.copy()
    columns = [first]
    feasible = t1s > 0.0
    active = feasible & (first < cover)
    prev2 = np.zeros(n_candidates)
    prev1 = first.copy()
    depth = 1
    while active.any():
        depth += 1
        if depth > max_len:
            feasible[active] = False
            break
        metrics.inc("recurrence.grid_steps")
        idx = np.nonzero(active)[0]
        p1 = prev1[idx]
        p2 = prev2[idx]
        f = np.asarray(distribution.pdf(p1), dtype=float)
        sf1 = np.asarray(distribution.sf(p1), dtype=float)
        sf2 = np.asarray(distribution.sf(p2), dtype=float)
        bad = ~np.isfinite(f) | (f <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = sf2 / f + (b / a) * (sf1 / f - p1) - g / a
        bad |= ~np.isfinite(nxt)
        if np.isfinite(hi):
            # Clamp before the monotonicity check, exactly as the lazy
            # extender does (min(nxt, hi) happens before extend_once).
            nxt = np.minimum(nxt, hi)
        bad |= nxt <= p1 + MONOTONE_ATOL
        column = np.full(n_candidates, np.inf)
        good = ~bad
        column[idx[good]] = nxt[good]
        columns.append(column)
        feasible[idx[bad]] = False
        active[idx[bad]] = False
        prev2[idx[good]] = p1[good]
        prev1[idx[good]] = nxt[good]
        done = idx[good][nxt[good] >= cover]
        active[done] = False

    matrix = np.stack(columns, axis=1)
    # Infeasible rows keep whatever prefix they grew before breaking down;
    # pad them fully so downstream kernels can mask on `feasible` alone.
    matrix[~feasible] = np.inf
    lengths = np.isfinite(matrix).sum(axis=1)
    return matrix, lengths, feasible


def optimal_sequence_from_t1(
    t1: float,
    distribution,
    cost_model: CostModel,
    eager: bool = False,
    tail_tol: float = PREFIX_TAIL_TOL,
) -> ReservationSequence:
    """Lazy Eq. (11) sequence starting at ``t1``.

    By default only ``t_1`` is materialized and the extender applies Eq. (11)
    on demand — this matches the paper's brute-force procedure, where a
    candidate sequence only ever needs to cover the largest *sampled*
    execution time before its validity is decided.  (Near the optimum the
    recurrence sits on a feasibility separatrix: sequences from ``t_1``
    slightly below it collapse eventually, but only beyond the range any
    finite Monte-Carlo evaluation explores.)

    With ``eager=True`` the whole prefix down to survival ``tail_tol`` is
    generated up front, raising :class:`RecurrenceError` immediately for
    infeasible candidates — the right mode for exact series evaluation.
    """
    hi = distribution.upper
    if eager:
        values = generate_optimal_sequence(t1, distribution, cost_model, tail_tol)
    else:
        t1 = float(t1)
        if t1 <= 0.0:
            raise RecurrenceError(f"t1 must be positive, got {t1}", index=0)
        values = [min(t1, hi)]

    def extend(current: np.ndarray) -> float:
        prev2 = float(current[-2]) if current.size >= 2 else 0.0
        prev1 = float(current[-1])
        if prev1 >= hi:
            raise SequenceError(
                f"sequence already covers the support (last={prev1}, upper={hi})"
            )
        nxt = next_reservation(prev2, prev1, distribution, cost_model)
        return min(nxt, hi) if np.isfinite(hi) else nxt

    extender = None if (values[-1] >= hi) else extend
    return ReservationSequence(values, extend=extender, name=f"eq11(t1={t1:.6g})")
