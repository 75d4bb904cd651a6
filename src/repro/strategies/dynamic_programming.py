"""Optimal dynamic programming for discrete distributions (Theorem 5).

For ``X ~ (v_i, f_i)_{i=1..n}``, let ``E*_i`` be the optimal expected cost
given ``X >= v_i`` (with the suffix distribution renormalized).  Theorem 5:

``E*_i = min_{i<=j<=n} [ alpha v_j + gamma + sum_{k=i..j} f'_k beta v_k
                         + (sum_{k>j} f'_k)(beta v_j + E*_{j+1}) ]``.

To avoid re-normalizing at every level we work with the *unnormalized*
value ``U_i = E*_i W_i`` where ``W_i = sum_{k>=i} f_k``:

``U_i = min_j [ (alpha v_j + gamma) W_i + beta (S_j - S_{i-1})
                + beta v_j W_{j+1} + U_{j+1} ]``

with prefix sums ``S_j = sum_{k<=j} f_k v_k`` and ``U_{n+1} = 0``.  Every
candidate is a line in ``W_i``: slope ``alpha v_j + gamma``, intercept
``beta v_j W_{j+1} + beta S_j + U_{j+1}``, plus the level constant
``-beta S_{i-1}``.  :func:`solve_lower_envelope` answers all levels in
amortised O(n) (monotone convex-hull trick); the checkpoint and
multi-resource DPs are other line definitions over it.

When the discrete law comes from truncating an unbounded one, the masses sum
to ``1 - eps``; the DP then optimizes the cost conditioned on ``X <= b``,
exactly as in the paper, and the caller appends tail reservations beyond
``b`` with a fallback heuristic (Section 4.2.2, last paragraph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.discrete import DiscreteDistribution
from repro.observability import metrics

__all__ = ["DiscreteDPResult", "LineFamily", "solve_lower_envelope",
           "backtrack_picks", "suffix_and_prefix_sums", "solve_discrete_dp",
           "dp_sequence_for_discrete"]


#: Candidate lines ``slopes[j] W_i + intercepts[j] + U_{j+1}`` as ``(slopes,
#: intercepts, value)``; ``value(i, j, U)`` evaluates candidate ``j`` at level
#: ``i`` in the solver's own operation order, level constants included.
LineFamily = Tuple[Sequence[float], Sequence[float], Callable[..., float]]


def solve_lower_envelope(
    queries: Sequence[float], families: Sequence[LineFamily]
) -> Tuple[List[float], List[int], List[int]]:
    """Solve ``U_i = min_{f, j >= i} value_f(i, j, U)`` backward from ``U_n = 0``.

    ``queries`` holds ``W_0..W_n``.  Returns ``(U, choice, family)``: ``U_0..
    U_n`` and, per level, the chosen ``j`` and its family's index.
    Preconditions: slopes strictly increase in ``j`` within each family, and
    ``queries[i]`` does not decrease as ``i`` falls.  Level ``i`` pushes line
    ``j = i`` (the smallest slope yet) onto each family's hull and advances a
    monotone head pointer towards newer lines: amortised O(1) per family.
    The pop test and the head advance use ``<=``, so on equal values the
    smaller ``j`` wins, as with ``np.argmin``; families are compared with
    strict ``<`` in the given order, so the first family wins a tie.
    """
    n = len(queries) - 1
    U, choice, family = [0.0] * (n + 1), [0] * n, [0] * n
    hulls: List[List[Tuple[int, float, float]]] = [[] for _ in families]
    heads = [0] * len(families)
    for i in range(n - 1, -1, -1):
        best_value = math.inf
        for f, (slopes, intercepts, value) in enumerate(families):
            hull = hulls[f]
            m_new, b_new = slopes[i], intercepts[i] + U[i + 1]
            while len(hull) >= 2:
                (_, m_a, b_a), (_, m_b, b_b) = hull[-2], hull[-1]
                if (b_new - b_b) * (m_a - m_b) > (b_b - b_a) * (m_b - m_new):
                    break
                hull.pop()
            hull.append((i, m_new, b_new))
            head = min(heads[f], len(hull) - 1)
            current = value(i, hull[head][0], U)
            while head + 1 < len(hull):
                candidate = value(i, hull[head + 1][0], U)
                if candidate > current:
                    break
                head += 1
                current = candidate
            heads[f] = head
            if current < best_value:
                best_value = current
                choice[i], family[i] = hull[head][0], f
        U[i] = best_value
    return U, choice, family


def backtrack_picks(choice: Sequence[int], start: int = 0) -> List[int]:
    """Follow per-level choices from level ``start`` to the end of the support."""
    picks: List[int] = []
    while start < len(choice):
        picks.append(int(choice[start]))
        start = picks[-1] + 1
    return picks


def suffix_and_prefix_sums(discrete: DiscreteDistribution) -> Tuple[np.ndarray, ...]:
    """``(v, f, W, S)``: support, conditional masses, and the length-(n+1)
    sums ``W[i] = sum_{k>=i} f_k`` and ``S[j] = sum_{k<j} f_k v_k`` (0-indexed)."""
    v = discrete.values
    f = discrete.masses / discrete.masses.sum()  # DP is over the conditional law
    suffix = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
    prefix_fv = np.concatenate([[0.0], np.cumsum(f * v)])
    return v, f, suffix, prefix_fv


@dataclass(frozen=True)
class DiscreteDPResult:
    """Optimal solution for a discrete distribution."""

    expected_cost: float  # E*_1, conditioned on X <= v_n for truncated laws
    reservations: np.ndarray  # the optimal reservation values (subset of v)
    choice_indices: np.ndarray  # indices into v of each chosen reservation
    #: Unnormalized value function: value_unnormalized[i] = W_i E*_i, the
    #: optimal cost-to-go given X >= v_i (0-indexed; entry n is 0).  Exposed
    #: so constrained variants (deadline DP) can reuse the suffix solution.
    value_unnormalized: np.ndarray
    #: level_choices[i] is the next reservation index chosen given X >= v_i;
    #: ``backtrack_picks(level_choices, i)`` is the optimal suffix plan.
    level_choices: np.ndarray


def solve_discrete_dp(
    discrete: DiscreteDistribution, cost_model: CostModel
) -> DiscreteDPResult:
    """Run the Theorem 5 dynamic program and backtrack the optimal sequence."""
    metrics.inc("dp.solves")
    metrics.inc("dp.points", discrete.values.size)
    v, _, suffix, prefix_fv = suffix_and_prefix_sums(discrete)
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma
    slopes = (alpha * v + gamma).tolist()
    base = (beta * v * suffix[1:] + beta * prefix_fv[1:]).tolist()
    level_const = (beta * prefix_fv).tolist()  # beta S_{i-1}
    W = suffix.tolist()

    def value(i: int, j: int, U: List[float]) -> float:
        return slopes[j] * W[i] + base[j] - level_const[i] + U[j + 1]

    U, choice, _ = solve_lower_envelope(W, [(slopes, base, value)])
    picks = np.asarray(backtrack_picks(choice), dtype=np.intp)
    return DiscreteDPResult(
        expected_cost=U[0] / W[0],
        reservations=v[picks],
        choice_indices=picks,
        value_unnormalized=np.asarray(U),
        level_choices=np.asarray(choice, dtype=np.intp),
    )


def dp_sequence_for_discrete(
    discrete: DiscreteDistribution, cost_model: CostModel
) -> ReservationSequence:
    """Convenience wrapper returning the optimal discrete sequence."""
    result = solve_discrete_dp(discrete, cost_model)
    return ReservationSequence(result.reservations, name="discrete-dp")
