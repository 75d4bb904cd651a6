"""Service-layer benchmarks: plan cache latency and pooled MC throughput.

Two questions the ``repro.service`` subsystem exists to answer:

1. How much does the plan cache save?  ``test_cold_vs_warm_plan`` times the
   first (cold: strategy + coverage + MC) and the second (warm: cache fetch)
   identical ``plan`` request and asserts the warm path is faster and never
   re-runs the DP (``plancache.hits`` is the proof).
2. What does the thread backend buy on the 10k-sample Monte-Carlo kernel?
   ``test_thread_vs_serial_mc`` times both paths.  Wall-clock speedups on
   shared CI runners are noisy, so the ratio is *recorded*, not asserted —
   only statistical agreement is enforced.  With fewer than two usable
   CPUs there is no parallelism to measure, so the entry records the skip
   instead of a "speedup" that would only be pool overhead.

Timings are hand-rolled ``perf_counter`` medians (these paths are dominated
by cache lookups and numpy kernels; pytest-benchmark's calibration overhead
would swamp the cold/warm contrast) and are persisted to
``BENCH_service.json`` at the repo root (override with ``BENCH_SERVICE_JSON``)
so successive PRs leave a comparable trajectory.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import observability as obs
from repro.core.cost import CostModel
from repro.distributions.registry import make_distribution
from repro.service.journal import ShardJournal
from repro.service.plancache import PlanCache
from repro.service.planner import PlannerService, ResilienceOptions
from repro.service.pool import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    effective_cpu_count,
)
from repro.simulation.batch import monte_carlo_many
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.strategies.registry import make_strategy

_TIMINGS = {}


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def _min_of_medians(fn, repeats: int, passes: int = 3) -> float:
    """Noise guard: the min of several medians.

    A single median still rides one bad scheduling window on a shared
    runner; the minimum over independent passes converges on the true cost
    of the code path (what an overhead comparison needs).
    """
    return min(_median_time(fn, repeats) for _ in range(passes))


@pytest.fixture(scope="module", autouse=True)
def _dump_timings():
    """After the module's benchmarks finish, persist the collected timings."""
    yield
    if not _TIMINGS:
        return
    default = os.path.join(os.path.dirname(__file__), "..", "BENCH_service.json")
    path = os.environ.get("BENCH_SERVICE_JSON", default)
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpu_count": os.cpu_count(),
        "benchmarks": _TIMINGS,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@pytest.fixture()
def fresh_registry():
    was_enabled = obs.is_enabled()
    obs.enable()
    registry = obs.get_registry()
    registry.reset()
    yield registry
    if not was_enabled:
        obs.disable()


REQUEST = {
    "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
    "strategy": "brute_force",
    "n_samples": 2000,
    "seed": 0,
}


def test_cold_vs_warm_plan(fresh_registry):
    """Warm plan requests must be answered from the cache, and faster."""
    service = PlannerService(cache=PlanCache(maxsize=32), n_samples=2000)

    started = time.perf_counter()
    cold = service.plan(REQUEST)
    cold_s = time.perf_counter() - started
    assert cold["cached"] is False

    warm_s = _median_time(lambda: service.plan(REQUEST), repeats=20)
    warm = service.plan(REQUEST)
    assert warm["cached"] is True
    assert int(fresh_registry.counter("plancache.hits").value) >= 20
    # The whole point of the cache: the warm path skips strategy + MC.
    assert warm_s < cold_s
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    _TIMINGS["plan_cold_vs_warm"] = {
        "cold_s": cold_s,
        "warm_median_s": warm_s,
        "speedup": speedup,
    }


def test_thread_vs_serial_mc(fresh_registry):
    """Thread-vs-serial MC throughput on the 10k-sample benchmark.

    Asserts statistical agreement (the acceptance criterion) on every
    host; records the wall-clock ratio without asserting it — 2-core CI
    runners make hard speedup thresholds flaky — and only where at least
    two CPUs are usable (a one-worker pool measures overhead, not speedup).
    """
    n = 10_000
    dist = make_distribution("lognormal", mu=3.0, sigma=0.5)
    cm = CostModel.reservation_only()
    seq = make_strategy("mean_by_mean").sequence(dist, cm)
    seq.ensure_covers(float(dist.quantile(0.999)))

    with SerialBackend() as serial_backend:
        serial_s = _median_time(
            lambda: monte_carlo_expected_cost(
                seq, dist, cm, n_samples=n, seed=11, backend=serial_backend
            ),
            repeats=5,
        )
        serial = monte_carlo_expected_cost(
            seq, dist, cm, n_samples=n, seed=11, backend=serial_backend
        )

    cpus = effective_cpu_count()
    jobs = max(2, min(4, cpus))
    with ThreadBackend(jobs) as thread_backend:
        thread_s = _median_time(
            lambda: monte_carlo_expected_cost(
                seq, dist, cm, n_samples=n, seed=11, backend=thread_backend
            ),
            repeats=5,
        )
        parallel = monte_carlo_expected_cost(
            seq, dist, cm, n_samples=n, seed=11, backend=thread_backend
        )

    # Acceptance: parallel MC within MC confidence tolerance of serial.
    tol = 5.0 * float(np.hypot(serial.std_error, parallel.std_error))
    assert abs(parallel.mean_cost - serial.mean_cost) <= tol

    if cpus < 2:
        _TIMINGS["mc_10k_thread_vs_serial"] = {
            "skipped": "needs >= 2 CPUs",
            "cpu_count": cpus,
        }
        return
    _TIMINGS["mc_10k_thread_vs_serial"] = {
        "serial_median_s": serial_s,
        "thread_median_s": thread_s,
        "jobs": jobs,
        "speedup": serial_s / thread_s if thread_s > 0 else float("inf"),
        "serial_mean_cost": serial.mean_cost,
        "thread_mean_cost": parallel.mean_cost,
    }


def test_mc_10k_process_vs_serial(fresh_registry):
    """Batch-of-estimates throughput: process pool vs the serial loop.

    ``monte_carlo_many`` is the workload the process backend exists for —
    each worker draws *and* costs its own 10k-sample stream, so sampling
    parallelizes too.  Results are backend-invariant by construction, so
    bit-identity is asserted unconditionally; the >1.5x speedup guard (the
    acceptance criterion CI enforces on ``BENCH_service.json``) only runs
    where a second core exists to provide it.
    """
    n = 10_000
    dist = make_distribution("lognormal", mu=3.0, sigma=0.5)
    cm = CostModel.reservation_only()

    seqs = [make_strategy("mean_by_mean").sequence(dist, cm) for _ in range(24)]
    serial_s = _median_time(
        lambda: monte_carlo_many(seqs, dist, cm, n_samples=n, seed=17),
        repeats=3,
    )
    serial = monte_carlo_many(seqs, dist, cm, n_samples=n, seed=17)

    cpus = effective_cpu_count()
    jobs = min(4, cpus)
    with ProcessBackend(jobs) as backend:
        backend.map(len, [()])  # fork workers before the clock starts
        process_s = _median_time(
            lambda: monte_carlo_many(
                seqs, dist, cm, n_samples=n, seed=17, backend=backend
            ),
            repeats=3,
        )
        pooled = monte_carlo_many(
            seqs, dist, cm, n_samples=n, seed=17, backend=backend
        )

    assert [r.mean_cost for r in pooled] == [r.mean_cost for r in serial]
    assert [r.std_error for r in pooled] == [r.std_error for r in serial]

    speedup = serial_s / process_s if process_s > 0 else float("inf")
    _TIMINGS["mc_10k_process_vs_serial"] = {
        "n_estimates": len(seqs),
        "n_samples": n,
        "serial_median_s": serial_s,
        "process_median_s": process_s,
        "jobs": jobs,
        "cpu_count": cpus,
        "speedup": speedup,
    }
    if cpus >= 2:
        assert speedup > 1.5, (
            f"process backend only {speedup:.2f}x over serial on {cpus} cores"
        )


def test_resilience_overhead(fresh_registry):
    """Policies enabled but no faults: the resilience layer must be ~free.

    The degradation ladder, breaker check, and retry wrapper all sit on the
    evaluate hot path; with ``REPRO_FAULTS`` unset they should cost a guard
    clause each.  Asserts enabled-path timings stay within 5% of the
    ``ResilienceOptions.disabled()`` baseline (plus a 2ms epsilon so
    sub-millisecond jitter on shared runners can't flip the verdict).
    Both paths are warmed first and timed as a min-of-medians — a single
    10-repeat median rode scheduler noise into false ~20% "overheads".
    """
    request = {**REQUEST, "strategy": "mean_by_mean"}

    def evaluate_with(resilience):
        service = PlannerService(
            cache=PlanCache(maxsize=32), n_samples=2000, resilience=resilience
        )
        service.plan(request)  # warm the plan cache: time only the MC path
        for _ in range(3):  # warm the evaluate path itself (lazy imports, allocator)
            service.evaluate(request)
        return _min_of_medians(
            lambda: service.evaluate(request), repeats=20, passes=3
        )

    raw_s = evaluate_with(ResilienceOptions.disabled())
    res_s = evaluate_with(None)  # defaults: policies armed, no faults

    overhead = res_s / raw_s - 1.0 if raw_s > 0 else 0.0
    _TIMINGS["resilience_overhead"] = {
        "disabled_min_median_s": raw_s,
        "enabled_min_median_s": res_s,
        "overhead_fraction": overhead,
    }
    assert res_s <= raw_s * 1.05 + 0.002, (
        f"resilience layer costs {overhead:.1%} on the no-fault path"
    )


def test_cache_lookup_overhead(fresh_registry):
    """A warm cache hit should cost microseconds, not milliseconds."""
    cache = PlanCache(maxsize=256)
    for i in range(200):
        cache.put(f"key-{i}", {"plan": [float(i)]})

    hit_s = _median_time(lambda: cache.get("key-100"), repeats=50)
    _TIMINGS["plancache_get_hit"] = {"median_s": hit_s}
    assert hit_s < 0.001


def test_journal_append_and_replay(fresh_registry, tmp_path):
    """Shard-journal costs: per-record append and full-segment replay.

    The append is timed with fsync off — CI disks put the fsync anywhere
    from 50µs (NVMe) to 10ms (contended network storage), which would
    measure the runner, not the code.  What *is* asserted is the code
    path: serializing + writing a record must stay sub-millisecond, and
    replaying a 1000-record segment must stay under a second — a shard
    restart is supposed to be cheap enough that the supervisor's restart
    loop (sub-second backoff) makes sense.  The fsync'd append is recorded
    alongside for the trajectory, unasserted.
    """
    n = 1000
    payload = {"plan": {"reservations": [float(i) for i in range(24)]}}

    journal = ShardJournal(str(tmp_path / "bench"), fsync=False)
    records = [
        {"op": "put", "key": f"{i:064x}", "created_at": float(i),
         "payload": payload}
        for i in range(n)
    ]
    started = time.perf_counter()
    for record in records:
        journal.append(record)
    append_s = (time.perf_counter() - started) / n

    replay_s = _median_time(lambda: journal.replay(), repeats=5)
    entries = journal.replay().entries
    assert len(entries) == n
    journal.close()

    durable = ShardJournal(str(tmp_path / "bench-fsync"), fsync=True)
    fsync_append_s = _median_time(
        lambda: durable.append(records[0]), repeats=20
    )
    durable.close()

    _TIMINGS["shard_journal"] = {
        "n_records": n,
        "append_per_record_s": append_s,
        "append_fsync_per_record_s": fsync_append_s,
        "replay_segment_s": replay_s,
        "replayed_records_per_s": n / replay_s if replay_s > 0 else float("inf"),
    }
    assert append_s < 0.001, f"journal append costs {append_s * 1e6:.0f}µs/record"
    assert replay_s < 1.0, f"1000-record replay took {replay_s:.2f}s"
