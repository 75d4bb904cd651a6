"""PlanCache behavior: LRU bound, TTL, counters, single-flight."""

from __future__ import annotations

import threading

import pytest

from repro import observability as obs
from repro.service.plancache import PlanCache


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


class FakeClock:
    def __init__(self, now: float = 1_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def counter(registry, name: str) -> int:
    return int(registry.counter(name).value)


# ----------------------------------------------------------------------
class TestBasics:
    def test_get_put_roundtrip(self, registry):
        cache = PlanCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert len(cache) == 1
        assert counter(registry, "plancache.hits") == 1
        assert counter(registry, "plancache.misses") == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)
        with pytest.raises(ValueError, match="ttl"):
            PlanCache(ttl=0.0)


class TestLRU:
    def test_eviction_drops_least_recently_used(self, registry):
        cache = PlanCache(maxsize=2)
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        cache.get("a")  # touch: b is now the LRU tail
        cache.put("c", {"n": 3})
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert counter(registry, "plancache.evictions") == 1

    def test_size_gauge_tracks(self, registry):
        cache = PlanCache(maxsize=3)
        for i in range(5):
            cache.put(f"k{i}", {})
        assert registry.gauge("plancache.size").value == 3


class TestTTL:
    def test_expired_entries_read_as_misses(self, registry):
        clock = FakeClock()
        cache = PlanCache(ttl=10.0, clock=clock)
        cache.put("k", {"v": 1})
        clock.advance(9.0)
        assert cache.get("k") == {"v": 1}
        clock.advance(2.0)
        assert cache.get("k") is None
        assert counter(registry, "plancache.expirations") == 1
        assert counter(registry, "plancache.misses") == 1

    def test_no_ttl_never_expires(self, registry):
        clock = FakeClock()
        cache = PlanCache(clock=clock)
        cache.put("k", {})
        clock.advance(1e9)
        assert cache.get("k") is not None


class TestGetOrCompute:
    def test_computes_once_then_hits(self, registry):
        cache = PlanCache()
        calls = []

        def factory():
            calls.append(1)
            return {"v": 42}

        payload, cached = cache.get_or_compute("k", factory)
        assert (payload, cached) == ({"v": 42}, False)
        payload, cached = cache.get_or_compute("k", factory)
        assert (payload, cached) == ({"v": 42}, True)
        assert len(calls) == 1

    def test_single_flight_under_contention(self, registry):
        """N concurrent requests for one cold key run the factory once."""
        cache = PlanCache()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        calls = []
        call_lock = threading.Lock()

        def factory():
            with call_lock:
                calls.append(1)
            return {"v": "expensive"}

        results = []
        results_lock = threading.Lock()

        def worker():
            barrier.wait()
            out = cache.get_or_compute("cold", factory)
            with results_lock:
                results.append(out)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(payload == {"v": "expensive"} for payload, _ in results)
        # Exactly one computation was a miss; every waiter saw the cache.
        assert sum(1 for _, cached in results if not cached) == 1


# ----------------------------------------------------------------------
class TestGaugeRegressions:
    """The ``plancache.size`` gauge must track every removal path."""

    def gauge(self, registry) -> int:
        return int(registry.gauge("plancache.size").value)

    def test_expired_get_updates_size_gauge(self, registry):
        clock = FakeClock()
        cache = PlanCache(ttl=10.0, clock=clock)
        cache.put("a", {})
        cache.put("b", {})
        assert self.gauge(registry) == 2
        clock.advance(11.0)
        assert cache.get("a") is None  # expired: dropped on read
        assert self.gauge(registry) == 1


class TestEviction:
    @staticmethod
    def keys(cache):
        return [entry["key"] for entry in cache.entries()]

    def test_put_evicts_in_lru_order(self, registry):
        cache = PlanCache(maxsize=2)
        assert cache.put("a", {}) is None
        cache.put("b", {})
        cache.put("c", {})  # "a" is the LRU victim
        assert self.keys(cache) == ["b", "c"]
        cache.get("b")  # refresh b; c becomes the victim
        cache.put("d", {})
        assert self.keys(cache) == ["b", "d"]
        assert counter(registry, "plancache.evictions") == 2

    def test_refresh_is_not_an_eviction(self, registry):
        cache = PlanCache(maxsize=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.put("a", {"v": 2})
        assert self.keys(cache) == ["b", "a"]
        assert counter(registry, "plancache.evictions") == 0


class TestStripeDeterminism:
    def test_stable_key_hash_ignores_pythonhashseed(self, registry):
        """Stripe selection must agree across interpreter processes.

        The regression: ``hash(key)`` is randomized per process, so two
        workers disagreed on which stripe serializes a key.  The fix
        derives the stripe from the content-hash key itself — assert the
        value is identical under different PYTHONHASHSEED settings.
        """
        import os
        import subprocess
        import sys

        key = "ab" * 32
        code = (
            "from repro.service.keys import stable_key_hash;"
            f"print(stable_key_hash({key!r}) % 64)"
        )
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__)
                ))),
            )
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1

    def test_stable_key_hash_uses_hex_prefix(self, registry):
        from repro.service.keys import stable_key_hash

        assert stable_key_hash("ff" * 32) == 0xFFFFFFFFFFFFFFFF
        assert stable_key_hash("00" * 32) == 0
        # Non-hex keys fall back to sha256 without raising.
        a, b = stable_key_hash("not hex!"), stable_key_hash("not hex?")
        assert a != b and a >= 0 and b >= 0
