"""Reference per-candidate BRUTE-FORCE scan (test-only).

This is the Monte-Carlo loop the library ran before the scan moved onto
the batched kernels: one :meth:`BruteForce.candidate_cost` call per grid
point, each running the lazy Eq. (11) recurrence and the serial Eq. (13)
kernel on the shared samples.  The differential tests hold the batched
scan and the screened winner search to it: same points, same winner, every
bit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.bounds import t1_search_interval
from repro.core.cost import CostModel
from repro.strategies.brute_force import BruteForce


def reference_scan(
    bf: BruteForce, distribution, cost_model: CostModel, samples: np.ndarray
) -> Tuple[List[float], List[Optional[float]], float, float]:
    """``(t1s, costs, best_t1, best_cost)``; infeasible candidates cost
    ``None`` and the first strict improvement wins."""
    lo, hi = t1_search_interval(distribution, cost_model)
    t1s: List[float] = []
    costs: List[Optional[float]] = []
    best_t1, best_cost = math.nan, math.inf
    for m in range(1, bf.m_grid + 1):
        t1 = lo + m * (hi - lo) / bf.m_grid
        cost = bf.candidate_cost(t1, distribution, cost_model, samples)
        t1s.append(t1)
        costs.append(cost)
        if cost is not None and cost < best_cost:
            best_t1, best_cost = t1, cost
    return t1s, costs, best_t1, best_cost
