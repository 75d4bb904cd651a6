"""Answer audit and exact-count check for the benchmark's own traffic.

Every response must be a 200 that is not degraded, carries the plan key
computed here from the request, says ``cached`` exactly when the schedule
predicts a cache hit, and (sharded) was not served by failover.  A seeded
sample of fresh plans and evaluations is then recomputed in-process from
the library primitives and must match bit for bit.

Counts that depend only on which requests were sent -- cache hits and
misses, Monte-Carlo samples, journal appends -- are predicted from the
schedule; a run whose counters differ is broken, not noisy.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.registry import make_distribution
from repro.service.keys import plan_key
from repro.service.planner import DEFAULT_COVERAGE
from repro.service.pool import get_backend
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.strategies.registry import make_strategy

#: The planner's cost model when a request names none.
COST_MODEL = CostModel(alpha=1.0, beta=0.0, gamma=0.0)
#: What repro-serve's default ``--backend thread --jobs 0`` resolves to.
BACKEND = get_backend("thread", 0)
RECOMPUTE_SAMPLE = 12


def _inputs(body: dict):
    spec = body["distribution"]
    distribution = make_distribution(spec["law"], **spec["params"])
    strategy = body["strategy"]
    return distribution, strategy["name"], dict(strategy["knobs"])


class KeyBook:
    """Plan keys computed locally, memoized per (distribution, strategy)."""

    def __init__(self):
        self._keys: Dict[str, str] = {}

    def key(self, body: dict) -> str:
        ident = json.dumps([body["distribution"], body["strategy"]], sort_keys=True)
        if ident not in self._keys:
            distribution, name, knobs = _inputs(body)
            self._keys[ident] = plan_key(
                distribution, COST_MODEL, name, knobs=knobs, coverage=DEFAULT_COVERAGE
            )
        return self._keys[ident]


def check(request, result, keys: KeyBook) -> Tuple[Optional[dict], Optional[str]]:
    """``(parsed response, problem or None)`` for one answered request."""
    if result is None:
        return None, "never answered"
    if result.status != 200:
        return None, f"HTTP status {result.status}"
    try:
        doc = json.loads(result.body)
    except ValueError:
        return None, "malformed JSON"
    if doc.get("degraded") is not False:
        return doc, f"degraded answer (evaluator {doc.get('evaluator')!r})"
    if doc.get("key") != keys.key(request.body):
        return doc, "plan key differs from the locally computed one"
    if doc.get("cached") is not request.expect_cached:
        return doc, f"cached={doc.get('cached')!r}, schedule predicts {request.expect_cached}"
    route = doc.get("shard")
    if route is not None and route.get("failover"):
        return doc, f"served by failover: {route}"
    return doc, None


def _fresh_plan(body: dict):
    """``(distribution, sequence)`` of a fresh plan, built the way the
    planner builds it: the strategy's sequence, extended to the coverage
    quantile."""
    distribution, name, knobs = _inputs(body)
    sequence = make_strategy(name, **knobs).sequence(distribution, COST_MODEL)
    sequence.ensure_covers(float(distribution.quantile(DEFAULT_COVERAGE)))
    return distribution, sequence


def recompute_plan(body: dict) -> Tuple[List[float], float]:
    """``(reservations, expected cost)`` of a fresh plan, in-process."""
    distribution, sequence = _fresh_plan(body)
    reservations = [float(v) for v in sequence.values]
    mc = monte_carlo_expected_cost(
        sequence, distribution, COST_MODEL,
        n_samples=body["n_samples"], seed=body["seed"], backend=BACKEND,
    )
    return reservations, mc.mean_cost


def recompute_evaluation(body: dict) -> Tuple[float, float]:
    """``(expected cost, std error)`` of ``/evaluate`` on a plan, in-process:
    the stored reservations with the planner's doubling tail."""
    distribution, planned = _fresh_plan(body)
    sequence = ReservationSequence(
        np.asarray([float(v) for v in planned.values], dtype=float),
        extend=lambda values: float(values[-1]) * 2.0,
        name=body["strategy"]["name"],
    )
    mc = monte_carlo_expected_cost(
        sequence, distribution, COST_MODEL,
        n_samples=body["n_samples"], seed=body["seed"], backend=BACKEND,
    )
    return mc.mean_cost, mc.std_error


def recompute_sample(answered: Sequence[Tuple[object, dict]], seed: int) -> List[str]:
    """Recompute a seeded sample of fresh plans and evaluations.

    ``answered`` holds ``(request, parsed response)`` pairs that passed
    :func:`check`; returns one problem string per mismatch.
    """
    rng = random.Random(f"audit:{seed}")  # repro-lint: disable=RS101 -- a seeded instance, not the global stream
    problems = []
    for kind in ("cold", "eval"):
        pool = [pair for pair in answered if pair[0].kind == kind]
        for request, doc in rng.sample(pool, min(RECOMPUTE_SAMPLE, len(pool))):
            if kind == "cold":
                reservations, cost = recompute_plan(request.body)
                served = (doc["plan"]["reservations"], doc["statistics"]["expected_cost"])
                if served != (reservations, cost):
                    problems.append(f"fresh plan {doc['key'][:12]} differs from recompute")
            else:
                served = (doc["evaluation"]["expected_cost"], doc["evaluation"]["std_error"])
                if served != recompute_evaluation(request.body):
                    problems.append(f"evaluation of {doc['key'][:12]} differs from recompute")
    return problems


def predicted_counts(requests: Sequence, sharded: bool) -> Dict[str, int]:
    """Counter deltas that ``requests`` must cause, whatever the timing.

    Only counters bumped before the response is written qualify: the
    server counts ``server.responses.200`` after sending, so a snapshot
    taken right after the last answer can miss it.
    """
    kinds = [r.kind for r in requests]
    hits = kinds.count("warm") + kinds.count("eval")
    cold = kinds.count("cold")
    counts = {
        "service.plan_requests": len(requests),
        "service.evaluate_requests": kinds.count("eval"),
        "mc.samples": sum(r.body["n_samples"] for r in requests if r.kind != "warm"),
        "pool.tasks": 0,
        "resilience.fallbacks": 0,
        "resilience.degraded_responses": 0,
        "server.throttled": 0,
    }
    if sharded:
        # Front-end counters: one miss per fresh plan, then one journaled put.
        counts.update({"shard.hits": hits, "shard.misses": cold, "journal.appends": cold})
    else:
        # A fresh plan misses twice: the lookup and its single-flight re-check.
        counts.update({"plancache.hits": hits, "plancache.misses": 2 * cold})
    return counts


def measured_counts(before: dict, after: dict, names: Sequence[str]) -> Dict[str, int]:
    """Counter deltas between two ``/metrics`` payloads (with
    ``journal.appends`` taken from their ``/healthz`` shard stats)."""
    out = {}
    for name in names:
        if name == "journal.appends":
            out[name] = journal_total(after, "appends") - journal_total(before, "appends")
        else:
            out[name] = counter(after, name) - counter(before, name)
    return out


def counter(metrics_payload: dict, name: str) -> int:
    return metrics_payload["metrics"]["counters"].get(name, 0)


def journal_total(payload: dict, field: str) -> int:
    """Sum of a journal stat over the shards in a ``/healthz`` payload
    (0 for the in-process cache)."""
    shards = payload.get("health", {}).get("cache", {}).get("shards", {})
    return sum(s.get("journal", {}).get(field, 0) for s in shards.values())
