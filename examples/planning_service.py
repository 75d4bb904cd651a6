#!/usr/bin/env python3
"""End-to-end tour of the planning service: boot, plan, hit the cache, evaluate.

Boots ``repro-serve`` in-process on an ephemeral port, then walks the full
client round trip:

1. ``GET  /healthz``  — liveness and backend/cache summary,
2. ``POST /plan``     — cold request: runs the strategy, caches the plan,
3. ``POST /plan``     — identical request: answered from the plan cache
   (``cached: true``, no recomputation — the ``plancache.hits`` counter in
   ``/metrics`` is the proof),
4. ``POST /evaluate`` — fresh Monte-Carlo numbers for the cached plan,
5. ``GET  /metrics``  — cache and server counters,
6. restart — a fresh store on the same journal directory replays the plans,
   so a restarted server answers them from the cache.

The cache is a :class:`~repro.service.shard.ShardStore` in a temporary
directory: the journaled plan cache ``repro-serve --shard-dir`` uses.

The CI ``service`` job runs this script verbatim and relies on its exit
code: every step ends in an ``assert``, so a broken cache or server fails
the build.

Run:  python examples/planning_service.py
"""

import os
import tempfile
import threading

from repro import observability as obs
from repro.service.client import ServiceClient
from repro.service.planner import PlannerService
from repro.service.server import serve
from repro.service.shard import ShardStore

# The `repro-serve` entry point enables instrumentation itself; an embedded
# service needs it on explicitly for the /metrics counters to count.
obs.enable()

PARAMS = {"mu": 3.0, "sigma": 0.5}

# ----------------------------------------------------------------------
# Boot an in-process server on an ephemeral port (the production path is
# the `repro-serve` console script; same code, same endpoints).
# ----------------------------------------------------------------------
store_dir = tempfile.TemporaryDirectory(prefix="repro-example-")
store_path = os.path.join(store_dir.name, "shard-0")
store = ShardStore(store_path, maxsize=64)
service = PlannerService(cache=store, n_samples=2000, seed=0)
server = serve(service, host="127.0.0.1", port=0, max_inflight=8)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
client = ServiceClient(f"http://127.0.0.1:{server.port}")
print(f"Server up on port {server.port}")

try:
    # 1. Liveness.
    health = client.healthz()
    assert health["status"] == "ok"
    print(f"healthz: backend={health['backend']}, cache={health['cache']}")

    # 2. Cold plan: the strategy (here the paper's Eq. 11 mean-by-mean
    #    heuristic) runs, the plan is cached under its content-hash key.
    cold = client.plan("lognormal", PARAMS, strategy="mean_by_mean")
    assert cold["cached"] is False
    stats = cold["statistics"]
    print(f"\ncold plan: key={cold['key'][:16]}…")
    print(f"  {len(cold['plan']['reservations'])} reservations, "
          f"E[cost]={stats['expected_cost']:.2f} "
          f"({stats['normalized_cost']:.3f}x clairvoyant)")

    # 3. Warm plan: identical request, answered from the cache.
    warm = client.plan("lognormal", PARAMS, strategy="mean_by_mean")
    assert warm["cached"] is True, "second identical request must hit the cache"
    assert warm["key"] == cold["key"]
    assert warm["plan"] == cold["plan"]
    print(f"warm plan: cached={warm['cached']} (same key, no recomputation)")

    # Different sampling settings still hit: the plan's identity is
    # (law params, cost model, strategy + knobs, coverage) — nothing else.
    warm2 = client.plan("lognormal", PARAMS, n_samples=4000, seed=7)
    assert warm2["cached"] is True

    # 4. Fresh evaluation numbers for the cached artifact.
    ev = client.evaluate("lognormal", PARAMS, n_samples=8000, seed=1)
    assert ev["cached"] is True
    lo, hi = ev["evaluation"]["ci95"]
    print(f"evaluate:  E[cost]={ev['evaluation']['expected_cost']:.2f} "
          f"(95% CI [{lo:.2f}, {hi:.2f}], n={ev['evaluation']['n_samples']})")

    # 5. The observable proof: hit/miss counters via /metrics.
    counters = client.metrics()["metrics"]["counters"]
    print(f"\nmetrics: plancache.hits={counters['plancache.hits']}, "
          f"plancache.misses={counters['plancache.misses']}")
    assert counters["plancache.hits"] >= 2
    assert counters["plancache.misses"] >= 1

    # 6. Restart: every plan was journaled when it was cached, so a fresh
    #    store on the same directory replays them — no shutdown step needed.
    restarted_store = ShardStore(store_path, maxsize=64)
    recovered = restarted_store.recover()
    assert recovered == len(store) >= 1
    restarted = PlannerService(cache=restarted_store, n_samples=2000)
    replay = restarted.plan(
        {"distribution": {"law": "lognormal", "params": PARAMS},
         "strategy": "mean_by_mean"}
    )
    assert replay["cached"] is True, "the journal must warm the restarted cache"
    assert replay["key"] == cold["key"]
    restarted_store.close()
    print(f"restart:   {recovered} plan(s) replayed from the journal")

    print("\nAll service round-trip checks passed.")
finally:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    store.close()
    store_dir.cleanup()
