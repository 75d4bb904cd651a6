"""Canonical metric names — the single source of truth.

Every counter/gauge/histogram/timer name recorded anywhere in the library
is declared here, so the ``/metrics`` endpoint, ``docs/SERVICE.md``, and
dashboards can never drift apart silently: the RS106 rule of ``repro-lint``
cross-checks each metric call site in ``src/`` against this module.

Conventions:

* dotted lowercase, ``<subsystem>.<event>`` (``plancache.hits``);
* counters are plural events, timers name the measured region;
* runtime-built families (one name per HTTP status, per strategy, per
  profiled function) declare their static prefix in
  :data:`DYNAMIC_PREFIXES`.

Modules under ``service/`` and ``observability/`` import these constants;
elsewhere string literals are allowed but must match this inventory.
"""

from __future__ import annotations

# -- core / strategies ---------------------------------------------------
RECURRENCE_ITERATIONS = "recurrence.iterations"
SEQUENCE_EXTENSIONS = "sequence.extensions"
BRUTE_FORCE_CANDIDATES = "brute_force.candidates"
BRUTE_FORCE_FEASIBLE_CANDIDATES = "brute_force.feasible_candidates"
DP_SOLVES = "dp.solves"
DP_POINTS = "dp.points"

# -- Monte-Carlo kernel / evaluator --------------------------------------
MC_SAMPLES = "mc.samples"
MC_KERNEL_CALLS = "mc.kernel_calls"
MC_KERNEL = "mc.kernel"
MC_SEARCHSORTED_REUSED = "mc.searchsorted_reused"
MC_PARALLEL_CHUNKS = "mc.parallel_chunks"
MC_CHUNK_FALLBACKS = "mc.chunk_fallbacks"

# -- batched Monte-Carlo kernels (repro.simulation.batch) -----------------
MC_BATCH_CALLS = "mc.batch.calls"
MC_BATCH_SEQUENCES = "mc.batch.sequences"
MC_BATCH_SAMPLES = "mc.batch.samples"
MC_BATCH_KERNEL = "mc.batch.kernel"
MC_BATCH_MATRIX_KERNEL = "mc.batch.matrix_kernel"
MC_BATCH_TASKS = "mc.batch.tasks"
MC_BATCH_SHM_BYTES = "mc.batch.shm_bytes"
#: Static prefix of the per-kind backend-selection counters (a
#: DYNAMIC_PREFIXES family); full names are built as
#: f"{MC_BATCH_BACKEND_PREFIX}{kind}" for kind in serial/thread/process.
MC_BATCH_BACKEND_PREFIX = "mc.batch.backend."

# -- spot-market platform (repro.platforms.spot) --------------------------
SPOT_EVAL_CALLS = "spot.eval_calls"
SPOT_PATHS = "spot.paths"
SPOT_STEPS = "spot.steps"
SPOT_INTERRUPTIONS = "spot.interruptions"
SPOT_TASKS = "spot.tasks"
SPOT_EVAL = "spot.eval"
SPOT_QUADRATURE_CALLS = "spot.quadrature_calls"
SPOT_PLANS = "spot.plans"
#: Static prefix of the per-kind backend-selection counters (a
#: DYNAMIC_PREFIXES family); full names are built as
#: f"{SPOT_BACKEND_PREFIX}{kind}" for kind in serial/thread/process/auto.
SPOT_BACKEND_PREFIX = "spot.backend."

# -- Eq. (11) grid recurrence ---------------------------------------------
RECURRENCE_GRID_CANDIDATES = "recurrence.grid_candidates"
RECURRENCE_GRID_STEPS = "recurrence.grid_steps"
EVALUATOR_EVALUATIONS = "evaluator.evaluations"
EVALUATOR_MONTE_CARLO = "evaluator.monte_carlo"
EVALUATOR_SERIES = "evaluator.series"

# -- batch simulator / runtime sessions ----------------------------------
BATCHSIM_SIMULATE = "batchsim.simulate"
BATCHSIM_QUEUE_DEPTH = "batchsim.queue_depth"
BATCHSIM_EVENTS = "batchsim.events"
BATCHSIM_SCHEDULER_INVOCATIONS = "batchsim.scheduler_invocations"
BATCHSIM_JOBS = "batchsim.jobs"
SESSION_REQUESTS = "session.requests"
SESSION_ATTEMPTS = "session.attempts"
SESSION_SUCCESSES = "session.successes"
SESSION_FAILURES = "session.failures"

# -- verification sweep --------------------------------------------------
VERIFICATION_SWEEP = "verification.sweep"
VERIFICATION_CHECKS = "verification.checks"
VERIFICATION_FAILURES = "verification.failures"

# -- plan cache ----------------------------------------------------------
PLANCACHE_HITS = "plancache.hits"
PLANCACHE_MISSES = "plancache.misses"
PLANCACHE_EVICTIONS = "plancache.evictions"
PLANCACHE_EXPIRATIONS = "plancache.expirations"
PLANCACHE_SIZE = "plancache.size"
PLANCACHE_COMPUTE = "plancache.compute"

# -- sharded plan-cache tier (repro.service.shard/router/journal) --------
SHARD_RPC_CALLS = "shard.rpc_calls"
SHARD_RPC_FAILURES = "shard.rpc_failures"
SHARD_HITS = "shard.hits"
SHARD_MISSES = "shard.misses"
SHARD_FAILOVERS = "shard.failovers"
SHARD_DEATHS = "shard.deaths"
SHARD_RESTARTS = "shard.restarts"
SHARD_UP = "shard.up"
SHARD_PUT_DROPS = "shard.put_drops"
SHARD_JOURNAL_APPENDS = "shard.journal_appends"
SHARD_JOURNAL_BYTES = "shard.journal_bytes"
SHARD_JOURNAL_RECORDS_REPLAYED = "shard.journal_records_replayed"
SHARD_JOURNAL_TRUNCATED_RECORDS = "shard.journal_truncated_records"
SHARD_COMPACTIONS = "shard.compactions"
SHARD_RECOVERED_ENTRIES = "shard.recovered_entries"

# -- execution pool ------------------------------------------------------
POOL_MAP = "pool.map"
POOL_TASKS = "pool.tasks"
POOL_RETRIES = "pool.retries"
POOL_TIMEOUTS = "pool.timeouts"
POOL_FAILURES = "pool.failures"

# -- resilience layer ----------------------------------------------------
RESILIENCE_FAULTS_INJECTED = "resilience.faults_injected"
RESILIENCE_RETRIES = "resilience.retries"
RESILIENCE_RETRY_EXHAUSTED = "resilience.retry_exhausted"
RESILIENCE_DEADLINE_EXPIRED = "resilience.deadline_expired"
RESILIENCE_FALLBACKS = "resilience.fallbacks"
RESILIENCE_DEGRADED = "resilience.degraded_responses"
RESILIENCE_BREAKER_STATE = "resilience.breaker.state"
RESILIENCE_BREAKER_OPENED = "resilience.breaker.opened"
RESILIENCE_BREAKER_HALF_OPENS = "resilience.breaker.half_opens"
RESILIENCE_BREAKER_CLOSES = "resilience.breaker.closes"
RESILIENCE_BREAKER_REJECTIONS = "resilience.breaker.rejections"
#: Static prefixes of the per-site / per-evaluator counter families
#: (DYNAMIC_PREFIXES entries); full names are built as
#: f"{RESILIENCE_FAULT_PREFIX}{site}" and
#: f"{RESILIENCE_EVALUATOR_PREFIX}{evaluator}".
RESILIENCE_FAULT_PREFIX = "resilience.fault."
RESILIENCE_EVALUATOR_PREFIX = "resilience.evaluator."

# -- planner service + HTTP front end ------------------------------------
SERVICE_PLAN_REQUESTS = "service.plan_requests"
SERVICE_PLAN = "service.plan"
SERVICE_PLAN_COMPUTE = "service.plan_compute"
SERVICE_EVALUATE_REQUESTS = "service.evaluate_requests"
SERVICE_EVALUATE = "service.evaluate"
SERVER_REQUESTS = "server.requests"
SERVER_THROTTLED = "server.throttled"
SERVER_ERRORS = "server.errors"
SERVER_RESPONSES_OK = "server.responses.200"
#: Static prefix of the per-status response counters (a DYNAMIC_PREFIXES
#: family); full names are built as f"{SERVER_RESPONSES_PREFIX}{status}".
SERVER_RESPONSES_PREFIX = "server.responses."

#: Families whose full names are built at runtime.  A literal or f-string
#: starting with one of these prefixes is canonical by construction.
DYNAMIC_PREFIXES = (
    "server.responses.",       # one counter per HTTP status code
    "strategy.created.",       # one counter per strategy key
    "profile.",                # one timer per @profiled function
    "resilience.fault.",       # one counter per fault-injection site
    "resilience.evaluator.",   # one counter per degradation-ladder rung
    "mc.batch.backend.",       # one counter per selected batch backend kind
    "spot.backend.",           # one counter per selected spot backend kind
)


def all_metric_names() -> frozenset:
    """Every canonical (non-dynamic) metric name declared above."""
    return frozenset(
        value
        for key, value in globals().items()
        if key.isupper()
        and key != "DYNAMIC_PREFIXES"
        and isinstance(value, str)
    )
