"""Expected cost of a reservation sequence.

Two independent evaluators:

* :func:`expected_cost_series` — the Theorem 1 rewrite
  ``E(S) = beta E[X] + sum_i (alpha t_{i+1} + beta t_i + gamma) P(X >= t_i)``,
  the production path (fast, handles infinite sequences by truncating once
  the survival weight is negligible);
* :func:`expected_cost_direct` — the defining double integral of Eq. (3),
  segment-by-segment quadrature.  Slower; used to validate Theorem 1 and in
  tests.

Both accept either a :class:`~repro.core.sequence.ReservationSequence` or a
plain array of reservation lengths.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from scipy import integrate

from repro.core.cost import CostModel
from repro.core.sequence import MAX_RESERVATIONS, ReservationSequence, SequenceError

__all__ = ["expected_cost_series", "expected_cost_direct", "normalized_cost"]

#: Survival probability below which further series terms are negligible.
DEFAULT_TAIL_TOL = 1e-12


def _as_sequence(seq: Union[ReservationSequence, Sequence[float]]) -> ReservationSequence:
    if isinstance(seq, ReservationSequence):
        return seq
    return ReservationSequence(seq)


def expected_cost_series(
    seq: Union[ReservationSequence, Sequence[float]],
    distribution,
    cost_model: CostModel,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Expected cost via the Theorem 1 series.

    For bounded distributions the series terminates naturally when a
    reservation reaches the upper support bound (``sf`` becomes 0).  For
    unbounded ones the sequence is extended (through its extender) until the
    survival weight drops below ``tail_tol``; a finite, non-extensible
    sequence that never covers the tail raises :class:`SequenceError`.
    """
    s = _as_sequence(seq)
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma
    upper = distribution.upper

    total = beta * distribution.mean()
    # i = 0 term: t_0 = 0, P(X >= 0) = 1.
    total += alpha * s[0] + gamma

    i = 0  # index into s of t_{i} for the term using (t_{i+1}, t_i)
    while True:
        t_i = s[i]
        surv = float(distribution.sf(t_i))
        if surv <= 0.0 or t_i >= upper:
            break
        if surv < tail_tol:
            break
        # Need t_{i+1}.
        if i + 1 >= len(s):
            if not s.is_extensible:
                raise SequenceError(
                    f"sequence {s.name or '<anonymous>'} ends at {s.last} but "
                    f"P(X >= {s.last}) = {surv:.3g} > tail_tol={tail_tol:.3g}; "
                    "the sequence does not cover the distribution tail"
                )
            s.extend_once()
        t_next = s[i + 1]
        total += (alpha * t_next + beta * t_i + gamma) * surv
        i += 1
        if i >= MAX_RESERVATIONS:
            raise SequenceError(
                "expected-cost series did not converge within "
                f"{MAX_RESERVATIONS} terms (last survival={surv:.3g})"
            )
    return total


def expected_cost_direct(
    seq: Union[ReservationSequence, Sequence[float]],
    distribution,
    cost_model: CostModel,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Expected cost via the defining integral (Eq. 3), by quadrature.

    ``E(S) = sum_k \\int_{t_{k-1}}^{t_k} C(k, t) f(t) dt`` where ``C(k, t)``
    accumulates the ``k-1`` failed reservations plus the successful one.
    """
    s = _as_sequence(seq)
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma
    lo, hi = distribution.support()

    total = 0.0
    prefix = 0.0  # cost of failed reservations so far
    prev = 0.0
    k = 0
    while True:
        if k >= len(s):
            if float(distribution.sf(prev)) < tail_tol:
                break
            if not s.is_extensible:
                raise SequenceError(
                    f"finite sequence ends at {s.last} with residual mass "
                    f"{float(distribution.sf(s.last)):.3g}"
                )
            s.extend_once()
        t_k = s[k]
        a, b = max(prev, lo), min(t_k, hi) if math.isfinite(hi) else t_k
        if b > a:
            mass, _ = integrate.quad(distribution.pdf, a, b, limit=200)
            mean_part, _ = integrate.quad(
                lambda t: t * distribution.pdf(t), a, b, limit=200
            )
            total += (prefix + alpha * t_k + gamma) * mass + beta * mean_part
        prefix += (alpha + beta) * t_k + gamma
        prev = t_k
        if t_k >= hi or float(distribution.sf(t_k)) < tail_tol:
            break
        k += 1
    return total


def normalized_cost(
    seq: Union[ReservationSequence, Sequence[float]],
    distribution,
    cost_model: CostModel,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """``E(S) / E^o`` — expected cost normalized by the omniscient scheduler.

    Always >= 1; this is the metric of Tables 2-4 and Figures 3-4.
    """
    return expected_cost_series(seq, distribution, cost_model, tail_tol) / (
        cost_model.omniscient_expected_cost(distribution)
    )
