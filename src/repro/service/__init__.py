"""Planner-as-a-service: plan cache, execution backends, HTTP front end.

The first subsystem on the ROADMAP's serving/scale axis.  A reservation
plan is a pure function of (distribution params, cost model, strategy +
knobs, coverage), which makes it the ideal cacheable artifact; Monte-Carlo
validation and the experiment sweeps are embarrassingly parallel.  This
package turns those observations into a long-lived service:

- :mod:`repro.service.keys` — canonical content-hash cache keys built on the
  ``Distribution.params()`` protocol;
- :mod:`repro.service.plancache` — thread-safe LRU + TTL plan cache;
- :mod:`repro.service.pool` — pluggable serial / thread / process execution
  backends with ordered map, per-task timeout, and bounded retry;
- :mod:`repro.service.planner` — the transport-free request/response core;
- :mod:`repro.service.journal` — crash-safe append-only shard journal
  (base snapshot + JSONL suffix, segment rotation, compaction);
- :mod:`repro.service.shard` — one journaled cache shard: store (also the
  in-process cache behind ``repro-serve --shard-dir``), worker process
  (``python -m repro.service.shard``), and RPC client;
- :mod:`repro.service.router` — consistent-hashing router
  (:class:`~repro.service.router.ShardedPlanCache`) and supervised
  :class:`~repro.service.router.ShardFleet` behind ``repro-serve
  --workers N``;
- :mod:`repro.service.server` — ``repro-serve``, a stdlib JSON/HTTP front
  end with admission control and graceful shutdown;
- :mod:`repro.service.client` — a stdlib client for that server.

Everything is dependency-free beyond the library's existing numpy/scipy.
"""

from repro.service.keys import (
    KEY_VERSION,
    canonical_json,
    cost_model_token,
    distribution_token,
    plan_key,
    strategy_token,
)
from repro.service.journal import JournalCorrupt, ShardJournal
from repro.service.plancache import PlanCache
from repro.service.planner import PlannerService, ServiceError
from repro.service.router import HashRing, ShardedPlanCache, ShardFleet
from repro.service.shard import (
    ShardClient,
    ShardError,
    ShardServer,
    ShardStore,
    ShardUnavailable,
)
from repro.service.pool import (
    BACKEND_KINDS,
    ExecutionBackend,
    PoolError,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    chunk_sizes,
    get_backend,
)
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.server import PlanServer, serve

__all__ = [
    # keys
    "KEY_VERSION",
    "canonical_json",
    "distribution_token",
    "cost_model_token",
    "strategy_token",
    "plan_key",
    # cache
    "PlanCache",
    # sharded cache tier
    "JournalCorrupt",
    "ShardJournal",
    "ShardStore",
    "ShardServer",
    "ShardClient",
    "ShardError",
    "ShardUnavailable",
    "HashRing",
    "ShardedPlanCache",
    "ShardFleet",
    # pool
    "BACKEND_KINDS",
    "ExecutionBackend",
    "PoolError",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "chunk_sizes",
    "get_backend",
    # planner / transport
    "PlannerService",
    "ServiceError",
    "PlanServer",
    "serve",
    "ServiceClient",
    "ServiceHTTPError",
]
