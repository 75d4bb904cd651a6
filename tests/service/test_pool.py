"""Execution backend contract: ordering, strictness, retries, timeouts."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import observability as obs
from repro.service.pool import (
    BACKEND_KINDS,
    PoolError,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    chunk_sizes,
    effective_cpu_count,
    get_backend,
)


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


def square(x):
    return x * x


class Flaky:
    """Fails the first ``n_failures`` calls per item, then succeeds."""

    def __init__(self, n_failures: int):
        self.n_failures = n_failures
        self.attempts = {}
        self._lock = threading.Lock()

    def __call__(self, x):
        with self._lock:
            seen = self.attempts.get(x, 0)
            self.attempts[x] = seen + 1
        if seen < self.n_failures:
            raise RuntimeError(f"transient failure #{seen} for {x}")
        return x * 10


# ----------------------------------------------------------------------
class TestChunkSizes:
    def test_even_split(self):
        assert chunk_sizes(10, 2) == [5, 5]

    def test_remainder_spread_over_leading_chunks(self):
        assert chunk_sizes(10, 3) == [4, 3, 3]

    def test_fewer_items_than_chunks(self):
        assert chunk_sizes(2, 8) == [1, 1]

    def test_sizes_sum_and_stay_positive(self):
        for n_items in (1, 7, 100):
            for n_chunks in (1, 3, 50):
                sizes = chunk_sizes(n_items, n_chunks)
                assert sum(sizes) == n_items
                assert all(s > 0 for s in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(0, 2)
        with pytest.raises(ValueError):
            chunk_sizes(2, 0)


class TestGetBackend:
    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("fork-bomb", 2)

    def test_auto_kind_is_rejected(self):
        # "auto" is not a kind: a pool is named explicitly or there is none.
        assert "auto" not in BACKEND_KINDS
        for jobs in (1, 2):
            with pytest.raises(KeyError, match="unknown backend"):
                get_backend("auto", jobs)

    def test_jobs_leq_one_is_always_serial(self):
        for kind in BACKEND_KINDS:
            assert isinstance(get_backend(kind, 1), SerialBackend)
        assert isinstance(get_backend(None, 8), SerialBackend)
        assert isinstance(get_backend("serial", 8), SerialBackend)

    def test_parallel_kinds(self):
        with get_backend("thread", 2) as b:
            assert isinstance(b, ThreadBackend) and b.jobs == 2

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ThreadBackend(-1)

    def test_jobs_zero_honors_cpu_affinity(self, monkeypatch):
        # A taskset/cpuset restriction must size jobs=0 pools, not the
        # machine's full CPU count.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert effective_cpu_count() == 3
        for cls in (ThreadBackend, ProcessBackend):
            with cls(0) as backend:
                assert backend.jobs == 3, cls.__name__


# ----------------------------------------------------------------------
#: Backends that can run closures (a process pool must pickle its tasks).
IN_PROCESS = ["serial", "thread"]

POOL_COUNTERS = (
    "pool.tasks", "pool.retries", "pool.failures",
    "resilience.retries", "resilience.retry_exhausted",
)


def make_backend(kind):
    if kind == "serial":
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(2)
    return ProcessBackend(2)


def pool_counters(registry):
    return {name: int(registry.counter(name).value) for name in POOL_COUNTERS}


@pytest.fixture(params=["serial", "thread", "process"])
def backend(request):
    with make_backend(request.param) as b:
        yield b


class TestMapContract:
    def test_preserves_input_order(self, registry, backend):
        items = list(range(17))
        assert backend.map(square, items) == [x * x for x in items]

    def test_empty_input(self, registry, backend):
        assert backend.map(square, []) == []

    @pytest.mark.parametrize("kind", IN_PROCESS)
    def test_strictness_raises_pool_error(self, registry, kind):
        # In-process backends only: the raising closure is not picklable.
        def boom(x):
            raise ValueError(f"bad item {x}")

        with make_backend(kind) as b, pytest.raises(PoolError) as err:
            b.map(boom, [1, 2, 3])
        assert str(err.value) == (
            "task 0 failed after 1 attempt(s): ValueError('bad item 1')"
        )
        assert pool_counters(registry) == {
            "pool.tasks": 3, "pool.retries": 0, "pool.failures": 1,
            "resilience.retries": 0, "resilience.retry_exhausted": 1,
        }

    @pytest.mark.parametrize("kind", IN_PROCESS)
    def test_retries_recover_transient_failures(self, registry, kind):
        flaky = Flaky(n_failures=1)
        with make_backend(kind) as b:
            assert b.map(flaky, [1, 2], retries=2) == [10, 20]
        assert pool_counters(registry) == {
            "pool.tasks": 2, "pool.retries": 2, "pool.failures": 0,
            "resilience.retries": 2, "resilience.retry_exhausted": 0,
        }

    @pytest.mark.parametrize("kind", IN_PROCESS)
    def test_retries_exhausted_still_raises(self, registry, kind):
        flaky = Flaky(n_failures=5)
        with make_backend(kind) as b, pytest.raises(PoolError) as err:
            b.map(flaky, [1], retries=1)
        assert str(err.value) == (
            "task 0 failed after 2 attempt(s): "
            "RuntimeError('transient failure #1 for 1')"
        )
        assert pool_counters(registry) == {
            "pool.tasks": 1, "pool.retries": 1, "pool.failures": 1,
            "resilience.retries": 1, "resilience.retry_exhausted": 1,
        }

    def test_serial_runs_nothing_after_an_exhausted_task(self, registry):
        ran = []

        def stop_at_two(x):
            ran.append(x)
            if x == 2:
                raise ValueError("stop")
            return x

        with pytest.raises(PoolError, match=r"^task 1 failed after 2 attempt"):
            SerialBackend().map(stop_at_two, [1, 2, 3, 4], retries=1)
        assert ran == [1, 2, 2]

    def test_timeout_raises_pool_error(self, registry):
        def slow(x):
            time.sleep(2.0)
            return x

        with ThreadBackend(1) as b:
            started = time.perf_counter()
            with pytest.raises(PoolError):
                b.map(slow, [1], timeout=0.05)
            # Collection gave up quickly instead of waiting the full sleep.
            assert time.perf_counter() - started < 1.5
        assert int(registry.counter("pool.timeouts").value) >= 1

    def test_tasks_counter(self, registry):
        with ThreadBackend(2) as b:
            b.map(square, list(range(5)))
        assert int(registry.counter("pool.tasks").value) == 5

    def test_parallelism_is_real(self, registry):
        """Two 0.2 s sleeps on two workers finish in well under 0.4 s."""
        with ThreadBackend(2) as b:
            started = time.perf_counter()
            b.map(time.sleep, [0.2, 0.2])
            elapsed = time.perf_counter() - started
        assert elapsed < 0.38


# ----------------------------------------------------------------------
class TestChunkingEdgeCases:
    """More workers than samples must never produce empty chunks."""

    def test_more_chunks_than_items_collapses(self):
        for n_items in (1, 2, 3):
            for n_chunks in (4, 8, 64):
                sizes = chunk_sizes(n_items, n_chunks)
                assert len(sizes) == n_items
                assert all(s == 1 for s in sizes)

    def test_single_item_many_chunks(self):
        assert chunk_sizes(1, 1000) == [1]

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_mc_jobs_exceeding_samples(self, jobs):
        """A parallel MC estimate with jobs > n_samples must still work
        (every chunk non-empty) and stay deterministic for a fixed seed."""
        import numpy as np

        from repro.core.cost import CostModel
        from repro.core.sequence import ReservationSequence
        from repro.distributions.lognormal import LogNormal
        from repro.simulation.monte_carlo import monte_carlo_expected_cost

        d = LogNormal(3.0, 0.5)
        cm = CostModel(alpha=1.0, beta=0.3, gamma=0.1)
        n_samples = max(jobs // 2, 1)  # strictly fewer samples than workers

        def make_seq():
            return ReservationSequence(
                [float(d.quantile(0.5))], extend=lambda cur: float(cur[-1]) * 2.0
            )

        a = monte_carlo_expected_cost(
            make_seq(), d, cm, n_samples=n_samples, seed=3, jobs=jobs
        )
        b = monte_carlo_expected_cost(
            make_seq(), d, cm, n_samples=n_samples, seed=3, jobs=jobs
        )
        assert a.n_samples == n_samples
        assert np.isfinite(a.mean_cost)
        assert a.mean_cost == b.mean_cost

    def test_mc_many_more_jobs_than_sequences(self):
        from repro.core.cost import CostModel
        from repro.core.sequence import ReservationSequence
        from repro.distributions.gamma import Gamma
        from repro.simulation.batch import monte_carlo_many

        d = Gamma(2.0, 2.0)
        cm = CostModel.reservation_only()
        seqs = [
            ReservationSequence(
                [float(d.quantile(0.5))], extend=lambda cur: float(cur[-1]) * 2.0
            )
        ]
        results = monte_carlo_many(
            seqs, d, cm, n_samples=50, seed=0, backend="thread", jobs=8
        )
        assert len(results) == 1
        assert results[0].n_samples == 50
