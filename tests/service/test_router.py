"""HashRing placement and ShardedPlanCache routing/failover.

Shard workers here are real :class:`ShardServer`\\ s on ephemeral
localhost ports — but run in threads, not subprocesses, so the tests
stay fast and a "dead shard" is simply a server that was shut down.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter

import pytest

from repro.service.plancache import PlanCache
from repro.service.router import HashRing, ShardedPlanCache
from repro.service.shard import (
    ShardClient,
    ShardStore,
    ShardUnavailable,
    serve_shard,
)


@pytest.fixture(autouse=True)
def _quiet_obs(isolated_obs):
    """Router metrics land in an isolated registry."""


def sha(i) -> str:
    return hashlib.sha256(str(i).encode()).hexdigest()


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
def test_ring_is_deterministic_and_order_insensitive():
    a = HashRing([0, 1, 2])
    b = HashRing([2, 0, 1])
    for i in range(100):
        assert a.preference(sha(i)) == b.preference(sha(i))


def test_ring_preference_covers_every_shard_once():
    ring = HashRing([0, 1, 2, 3])
    for i in range(50):
        pref = ring.preference(sha(i))
        assert sorted(pref) == [0, 1, 2, 3]
        assert pref[0] == ring.primary(sha(i))


def test_ring_balances_within_reason():
    ring = HashRing([0, 1, 2])
    counts = Counter(ring.primary(sha(i)) for i in range(3000))
    for shard in (0, 1, 2):
        assert 600 <= counts[shard] <= 1500, counts


def test_ring_removal_moves_only_the_lost_arc():
    full = HashRing([0, 1, 2])
    reduced = HashRing([0, 1])
    for i in range(500):
        key = sha(i)
        if full.primary(key) != 2:
            assert reduced.primary(key) == full.primary(key)


def test_ring_rejects_empty_and_bad_replicas():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing([0], replicas=0)


# ----------------------------------------------------------------------
# ShardedPlanCache over live in-thread shard servers
# ----------------------------------------------------------------------
@pytest.fixture
def fleet(tmp_path):
    """Three in-thread shard servers + a router facade over them."""
    servers, threads = [], []
    clients = {}
    for sid in range(3):
        store = ShardStore(str(tmp_path / f"shard-{sid}"), fsync=False)
        server = serve_shard(store, sid)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
        clients[sid] = ShardClient("127.0.0.1", server.port, sid, timeout=2.0)
    cache = ShardedPlanCache(clients, maxsize_per_shard=64)
    yield cache, servers
    for server in servers:
        server.shutdown()
        server.server_close()
        server.store.close()


def kill(server) -> None:
    server.shutdown()
    server.server_close()


def test_routed_compute_then_hit(fleet):
    cache, _ = fleet
    calls = []

    def factory():
        calls.append(1)
        return {"v": 42}

    payload, cached, route = cache.get_or_compute_routed(sha(1), factory)
    assert payload == {"v": 42} and not cached
    assert route["served_by"] == route["primary"]
    assert route["failover"] is False

    payload, cached, route = cache.get_or_compute_routed(sha(1), factory)
    assert payload == {"v": 42} and cached
    assert calls == [1]


def test_keys_spread_across_shards(fleet):
    cache, servers = fleet
    for i in range(60):
        cache.get_or_compute(sha(i), lambda i=i: {"v": i})
    sizes = [len(s.store) for s in servers]
    assert sum(sizes) == 60
    assert all(size > 0 for size in sizes), sizes


def test_failover_on_dead_primary_still_answers(fleet):
    cache, servers = fleet
    key = sha(7)
    cache.get_or_compute(key, lambda: {"v": 7})
    primary = cache._ring.primary(key)
    kill(servers[primary])

    payload, cached, route = cache.get_or_compute_routed(key, lambda: {"v": 7})
    assert payload == {"v": 7}
    assert route["failover"] is True
    assert route["served_by"] != primary
    assert primary in cache.down_shards()

    # Subsequent requests for the key are served by the fallback's cache.
    payload, cached, route = cache.get_or_compute_routed(
        key, lambda: {"v": "recomputed"}
    )
    assert payload == {"v": 7} and cached


def test_mark_up_returns_shard_to_ring(fleet):
    cache, servers = fleet
    key = sha(7)
    primary = cache._ring.primary(key)
    cache.mark_down(primary)
    _, _, route = cache.get_or_compute_routed(key, lambda: {"v": 1})
    assert route["failover"] is True
    assert cache.mark_up(primary)
    assert not cache.mark_up(primary)  # idempotent
    _, _, route = cache.get_or_compute_routed(key, lambda: {"v": 1})
    assert route["served_by"] == primary


def test_all_shards_down_degrades_to_uncached_compute(fleet):
    cache, servers = fleet
    for server in servers:
        kill(server)
    payload, cached, route = cache.get_or_compute_routed(
        sha(3), lambda: {"v": "direct"}
    )
    assert payload == {"v": "direct"} and not cached
    assert route["served_by"] is None
    assert sorted(cache.down_shards()) == [0, 1, 2]


def test_broadcast_invalidate_reaches_failover_copies(fleet):
    cache, servers = fleet
    key = sha(5)
    primary = cache._ring.primary(key)
    cache.get_or_compute(key, lambda: {"v": 1})  # cached on primary
    cache.mark_down(primary)
    cache.get_or_compute(key, lambda: {"v": 2})  # failover copy elsewhere
    cache.mark_up(primary)

    assert cache.invalidate(key) is True
    for server in servers:
        assert server.store.get(key) is None
    # Cold again everywhere: a fresh compute runs.
    payload, cached = cache.get_or_compute(key, lambda: {"v": 3})
    assert payload == {"v": 3} and not cached


def test_stats_reports_per_shard_and_down_state(fleet):
    cache, servers = fleet
    cache.get_or_compute(sha(1), lambda: {"v": 1})
    stats = cache.stats()
    assert stats["sharded"] is True and stats["n_shards"] == 3
    assert set(stats["shards"]) == {"0", "1", "2"}
    for shard in stats["shards"].values():
        assert "pid" in shard and "journal" in shard
    kill(servers[0])
    cache.mark_down(0)
    stats = cache.stats()
    assert stats["down"] == [0]
    assert stats["shards"]["0"]["up"] is False


def test_len_sums_shard_sizes(fleet):
    cache, _ = fleet
    for i in range(10):
        cache.get_or_compute(sha(i), lambda i=i: {"v": i})
    assert len(cache) == 10


def test_client_signals_unavailable_for_dead_port(fleet):
    cache, servers = fleet
    kill(servers[1])
    client = cache.client(1)
    with pytest.raises(ShardUnavailable):
        client.get(sha(1))
    assert client.ping() is False


def test_planner_protocol_parity_with_plancache():
    """Both cache tiers expose the planner-facing methods."""
    for method in ("get_or_compute", "get", "put", "invalidate", "stats"):
        assert callable(getattr(PlanCache, method))
        assert callable(getattr(ShardedPlanCache, method))
