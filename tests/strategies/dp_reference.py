"""Reference O(n^2) scans for the Theorem 5 family of DPs (test-only).

These are the per-level vectorized ``np.argmin`` scans the library used
before the three solvers moved onto the shared lower-envelope kernel.  The
differential tests hold the kernel to them: same picks, bit-identical values.
``exhaustive_optimal`` enumerates every plan on tiny supports.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.distributions.discrete import DiscreteDistribution
from repro.extensions.multiresource import MultiResourceCostModel, SpeedupModel


def reference_discrete_dp(
    discrete: DiscreteDistribution, cost_model: CostModel
) -> Tuple[float, np.ndarray, np.ndarray]:
    """``(expected_cost, choice_indices, value_unnormalized)`` by full scan."""
    v = discrete.values
    f = discrete.masses / discrete.masses.sum()
    n = v.size
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma

    suffix = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
    prefix_fv = np.concatenate([[0.0], np.cumsum(f * v)])

    U = np.zeros(n + 1)
    choice = np.zeros(n, dtype=np.intp)

    base_j = beta * v * suffix[1:] + beta * prefix_fv[1:]
    affine = np.empty(n)
    np.multiply(alpha, v, out=affine)
    affine += gamma
    scratch = np.empty(n)
    for i in range(n - 1, -1, -1):
        cand = scratch[i:]
        np.multiply(affine[i:], suffix[i], out=cand)
        cand += base_j[i:]
        cand -= beta * prefix_fv[i]
        cand += U[i + 1 :]
        k = int(np.argmin(cand))
        choice[i] = i + k
        U[i] = float(cand[k])

    picks: List[int] = []
    i = 0
    while i < n:
        j = int(choice[i])
        picks.append(j)
        i = j + 1
    return float(U[0] / suffix[0]), np.asarray(picks, dtype=np.intp), U


def reference_checkpoint_dp(
    discrete: DiscreteDistribution, cost_model: CostModel, overhead: float
) -> np.ndarray:
    """Checkpoint thresholds chosen by the full scan."""
    v = discrete.values
    f = discrete.masses / discrete.masses.sum()
    n = v.size
    alpha, beta, gamma = cost_model.alpha, cost_model.beta, cost_model.gamma

    suffix = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
    prefix_fv = np.concatenate([[0.0], np.cumsum(f * v)])

    U = np.zeros(n + 1)
    choice = np.zeros(n, dtype=np.intp)
    v_prev_all = np.concatenate([[0.0], v])  # v_{i-1} with v_0 = 0

    for i in range(n - 1, -1, -1):
        v_prev = v_prev_all[i]
        j = np.arange(i, n)
        w_jc = v[j] - v_prev + overhead
        cand = (
            (alpha * w_jc + gamma) * suffix[i]
            + beta * (prefix_fv[j + 1] - prefix_fv[i])
            - beta * v_prev * (suffix[i] - suffix[j + 1])
            + beta * w_jc * suffix[j + 1]
            + U[j + 1]
        )
        k = int(np.argmin(cand))
        choice[i] = i + k
        U[i] = float(cand[k])

    picks: List[int] = []
    i = 0
    while i < n:
        j = int(choice[i])
        picks.append(j)
        i = j + 1
    return v[np.asarray(picks, dtype=np.intp)]


def reference_multiresource_dp(
    discrete: DiscreteDistribution,
    cost_model: MultiResourceCostModel,
    speedup: SpeedupModel,
    processor_choices: Sequence[int],
) -> List[Tuple[float, int]]:
    """``(duration, processors)`` of each reservation chosen by the full scan."""
    procs = sorted(set(int(p) for p in processor_choices))
    v = discrete.values
    f = discrete.masses / discrete.masses.sum()
    n = v.size
    a0, a1 = cost_model.alpha0, cost_model.alpha1
    beta, gamma = cost_model.beta, cost_model.gamma

    suffix = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
    prefix_fv = np.concatenate([[0.0], np.cumsum(f * v)])

    U = np.zeros(n + 1)
    choice_j = np.zeros(n, dtype=np.intp)
    choice_p = np.zeros(n, dtype=np.intp)

    g_by_p = {p: speedup.g(p) for p in procs}
    for i in range(n - 1, -1, -1):
        j = np.arange(i, n)
        best_val = math.inf
        best = (i, procs[0])
        for p in procs:
            g = g_by_p[p]
            t_j = v[j] * g
            cand = (
                ((a0 + a1 * p) * t_j + gamma) * suffix[i]
                + beta * g * (prefix_fv[j + 1] - prefix_fv[i])
                + beta * t_j * suffix[j + 1]
                + U[j + 1]
            )
            k = int(np.argmin(cand))
            if cand[k] < best_val:
                best_val = float(cand[k])
                best = (i + k, p)
        choice_j[i], choice_p[i] = best
        U[i] = best_val

    reservations: List[Tuple[float, int]] = []
    i = 0
    while i < n:
        j, p = int(choice_j[i]), int(choice_p[i])
        reservations.append((float(v[j]) * g_by_p[p], p))
        i = j + 1
    return reservations


def exhaustive_optimal(discrete: DiscreteDistribution, cm: CostModel) -> float:
    """Brute-force over all subsets of support points that include the last
    value (every valid sequence must end at v_n)."""
    v = discrete.values
    f = discrete.masses / discrete.masses.sum()
    n = len(v)
    best = float("inf")
    for r in range(n):
        for subset in itertools.combinations(range(n - 1), r):
            picks = list(subset) + [n - 1]
            seq = v[np.asarray(picks, dtype=int)]
            # Expected cost under the discrete law.
            cost = 0.0
            for k, prob in zip(v, f):
                total, covered = 0.0, False
                for t in seq:
                    if k <= t:
                        total += cm.alpha * t + cm.beta * k + cm.gamma
                        covered = True
                        break
                    total += (cm.alpha + cm.beta) * t + cm.gamma
                assert covered
                cost += prob * total
            best = min(best, cost)
    return best
