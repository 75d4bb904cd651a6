"""Thread-safety regression tests for the metrics registry.

The ``repro.service`` worker pool and the threaded HTTP front end increment
shared counters and timer histograms concurrently; before the registry grew
locks, ``Counter.inc`` was a read-modify-write race and lost updates under
exactly this load.
"""

import threading

import pytest

from repro.observability import metrics


@pytest.fixture()
def registry(isolated_obs):
    from repro import observability as obs

    reg, _ = isolated_obs
    obs.enable()
    return reg


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)

    def run():
        barrier.wait()
        fn()

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_counter_increments_are_lossless(registry):
    n_threads, n_incs = 8, 5_000

    _hammer(n_threads, lambda: [metrics.inc("svc.requests") for _ in range(n_incs)])

    assert registry.counter("svc.requests").value == n_threads * n_incs


def test_concurrent_histogram_observations_are_lossless(registry):
    n_threads, n_obs = 8, 2_000

    def observe():
        for i in range(n_obs):
            metrics.observe("svc.queue_depth", float(i))

    _hammer(n_threads, observe)

    h = registry.histogram("svc.queue_depth")
    assert h.count == n_threads * n_obs
    assert h.max == float(n_obs - 1)


def test_concurrent_get_or_create_yields_single_metric(registry):
    n_threads = 16
    seen = []
    lock = threading.Lock()

    def create():
        c = registry.counter("svc.singleton")
        with lock:
            seen.append(c)
        c.inc()

    _hammer(n_threads, create)

    assert all(c is seen[0] for c in seen)
    assert registry.counter("svc.singleton").value == n_threads


def test_concurrent_gauge_sets_keep_watermarks(registry):
    n_threads = 8

    def setter():
        for i in range(1_000):
            metrics.set_gauge("svc.inflight", float(i))

    _hammer(n_threads, setter)

    g = registry.gauge("svc.inflight")
    assert g.n_sets == n_threads * 1_000
    assert g.min == 0.0
    assert g.max == 999.0


def test_percentile_while_observing_does_not_crash(registry):
    stop = threading.Event()

    def observe():
        i = 0
        while not stop.is_set():
            metrics.observe("svc.latency", float(i % 100))
            i += 1

    writer = threading.Thread(target=observe)
    writer.start()
    try:
        h = registry.histogram("svc.latency")
        for _ in range(2_000):
            h.percentile(95)  # must never see a mid-mutation window
    finally:
        stop.set()
        writer.join()


def test_histogram_snapshot_is_one_moment_while_observing(registry):
    stop = threading.Event()

    def observe():
        i = 0
        while not stop.is_set():
            metrics.observe("svc.latency", float(i % 100))
            i += 1

    writer = threading.Thread(target=observe)
    writer.start()
    try:
        h = registry.histogram("svc.latency")
        for _ in range(200):
            d = h.to_dict()
            if d["count"]:
                # count, total and the window are read under one lock hold.
                assert d["mean"] == d["total"] / d["count"]
                assert d["min"] <= d["p50"] <= d["p95"] <= d["p99"] <= d["max"]
    finally:
        stop.set()
        writer.join()
