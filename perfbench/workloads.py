"""Seeded request schedules for the three benchmark workloads.

Everything a run sends is a pure function of ``(workload, seed)``: the warm
set planned during set-up and the timed schedule.  The schedule is built in
fixed-composition blocks, so every seed sends the same share of each request
class, law and strategy; only parameters, sample counts and order change.
A longer schedule of the same seed extends a shorter one (prefix-stable), so
two runs of one seed always agree on the requests both of them issued.

Request classes:

* ``warm``  -- ``/plan`` on a key planned during set-up (a cache hit);
* ``eval``  -- ``/evaluate`` on a warm key, 5k-50k Monte-Carlo samples;
* ``cold``  -- ``/plan`` on a key no earlier request used (a fresh plan).

Where a percentile is taken, the mix keeps it inside one dense group of
requests rather than on a gap between two groups, where it would jump
with noise: see ``MIXED_BLOCK`` and ``FRESH_WEIGHT``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("hot-plan", "mixed", "sharded-mixed")

#: Paper Table 1 parameters; every key jitters them, so keys stay unique.
BASE_PARAMS: Dict[str, Dict[str, float]] = {
    "exponential": {"rate": 1.0},
    "weibull": {"scale": 1.0, "shape": 0.5},
    "gamma": {"shape": 2.0, "rate": 2.0},
    "lognormal": {"mu": 3.0, "sigma": 0.5},
    "truncated_normal": {"mu": 8.0, "sigma2": 2.0, "a": 0.0},
    "pareto": {"scale": 1.5, "alpha": 3.0},
    "uniform": {"a": 10.0, "b": 20.0},
    "beta": {"alpha": 2.0, "beta": 2.0},
    "bounded_pareto": {"low": 1.0, "high": 20.0, "alpha": 2.1},
}
LAWS = tuple(BASE_PARAMS)
STRATEGIES = (
    "brute_force",
    "mean_by_mean",
    "mean_stdev",
    "mean_doubling",
    "median_by_median",
    "equal_time_dp",
    "equal_probability_dp",
)
#: The default grid (5000 candidates) costs ~230 ms per plan on a 2-core
#: host; a handful of such keys would own the tail of every percentile.
BRUTE_FORCE_M_GRID = 200

#: Fresh plans use the paper's own algorithms (brute force and the two DP
#: discretizations, 7-23 ms a plan here) twice as often as each heuristic
#: (1-5 ms).  With an even mix the fresh-plan median would sit on the gap
#: between the two groups.
FRESH_WEIGHT = {"brute_force": 2, "equal_time_dp": 2, "equal_probability_dp": 2}

PLAN_SAMPLES = 5000
EVAL_SAMPLES = (5000, 50000)
#: Per block of ten timed requests in the mixed workloads.  Warm hits are the
#: fastest group; at 30% the median lands inside the evaluations, clear of
#: the hits' tail (at 40% it sat on the boundary between the two).
MIXED_BLOCK = ("warm",) * 3 + ("eval",) * 5 + ("cold",) * 2
#: Table 1 parameters are scaled by up to this factor either way, so every
#: key is new while plan costs stay close to the paper's laws.
JITTER = 0.05


@dataclass(frozen=True)
class Request:
    """One generated request; ``kind`` is the class the audit predicts."""

    kind: str  # "warm" | "eval" | "cold"
    body: dict

    @property
    def path(self) -> str:
        return "/evaluate" if self.kind == "eval" else "/plan"

    @property
    def expect_cached(self) -> bool:
        return self.kind != "cold"


@dataclass(frozen=True)
class Workload:
    """What one workload sends and how the server is started for it."""

    name: str
    keep_alive: bool
    workers: int
    #: Requests in the exact-count window at the start of the timed phase.
    window: int


WORKLOAD_SPECS = {
    "hot-plan": Workload("hot-plan", keep_alive=True, workers=0, window=256),
    "mixed": Workload("mixed", keep_alive=False, workers=0, window=1000),
    "sharded-mixed": Workload("sharded-mixed", keep_alive=False, workers=3, window=1000),
}


def _jittered(rng: random.Random, law: str) -> Dict[str, float]:
    """Table 1 parameters scaled by exp(U(-JITTER, JITTER)), zero bounds kept."""
    return {
        name: round(value * math.exp(rng.uniform(-JITTER, JITTER)), 9) if value else value
        for name, value in BASE_PARAMS[law].items()
    }


def _plan_body(rng: random.Random, law: str, strategy: str) -> dict:
    knobs = (
        {"m_grid": BRUTE_FORCE_M_GRID, "seed": rng.randrange(2**31)}
        if strategy == "brute_force"
        else {}
    )
    return {
        "distribution": {"law": law, "params": _jittered(rng, law)},
        "strategy": {"name": strategy, "knobs": knobs},
        "n_samples": PLAN_SAMPLES,
        "seed": 0,
    }


def fresh_pairs() -> List[Tuple[str, str]]:
    """One cycle of fresh plans: every (law, strategy) pair, weighted."""
    return [
        (law, strategy)
        for law in LAWS
        for strategy in STRATEGIES
        for _ in range(FRESH_WEIGHT.get(strategy, 1))
    ]


def warm_set(workload: str, seed: int) -> List[dict]:
    """Plan bodies planned during set-up.

    Mixed workloads warm every (law, strategy) pair once.  Hot-plan's set
    is two cycles of :func:`fresh_pairs` (180 keys): its fresh-plan latency
    is measured on these set-up plans, so they follow the fresh-plan mix,
    and two cycles give each set-up enough plans for a steady median.
    """
    rng = random.Random(f"{workload}:{seed}:warm")  # repro-lint: disable=RS101 -- a seeded instance, not the global stream
    if workload == "hot-plan":
        pairs = fresh_pairs() * 2
    else:
        pairs = list(itertools.product(LAWS, STRATEGIES))
    rng.shuffle(pairs)
    return [_plan_body(rng, law, strategy) for law, strategy in pairs]


class _Cycle:
    """Endless reshuffled passes over a fixed list (balanced draws)."""

    def __init__(self, rng: random.Random, items):
        self._rng, self._items, self._pending = rng, list(items), []

    def next(self):
        if not self._pending:
            self._pending = list(self._items)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def schedule(workload: str, seed: int, n: int, warm: Optional[List[dict]] = None) -> List[Request]:
    """The first ``n`` timed requests of ``workload`` for ``seed``."""
    if workload not in WORKLOAD_SPECS:
        raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    warm = warm_set(workload, seed) if warm is None else warm
    rng = random.Random(f"{workload}:{seed}:timed")  # repro-lint: disable=RS101 -- a seeded instance, not the global stream
    warm_keys = _Cycle(rng, range(len(warm)))
    if workload == "hot-plan":
        return [Request("warm", warm[warm_keys.next()]) for _ in range(n)]

    eval_keys = _Cycle(rng, range(len(warm)))
    cold_pairs = _Cycle(rng, fresh_pairs())
    lo, hi = EVAL_SAMPLES
    # n_samples is stratified over [lo, hi) per law: sampling cost differs
    # tenfold between laws, so every law gets the same spread of sizes.
    strata = {law: _Cycle(rng, range(10)) for law in LAWS}
    out: List[Request] = []
    while len(out) < n:
        block = list(MIXED_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "warm":
                out.append(Request("warm", warm[warm_keys.next()]))
            elif kind == "eval":
                key = warm[eval_keys.next()]
                stratum = strata[key["distribution"]["law"]].next()
                n_samples = int(lo + (stratum + rng.random()) * (hi - lo) / 10)
                body = dict(key, n_samples=n_samples, seed=rng.randrange(2**31))
                out.append(Request("eval", body))
            else:
                law, strategy = cold_pairs.next()
                out.append(Request("cold", _plan_body(rng, law, strategy)))
    return out[:n]
