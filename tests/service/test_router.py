"""HashRing placement and ShardedPlanCache routing/failover.

Shard workers here are real :class:`ShardServer`\\ s on ephemeral
localhost ports — but run in threads, not subprocesses, so the tests
stay fast and a "dead shard" is simply a server that was shut down.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from collections import Counter

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service.plancache import PlanCache
from repro.service.router import HashRing, ShardedPlanCache
from repro.service.shard import (
    ShardClient,
    ShardServer,
    ShardStore,
    ShardUnavailable,
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


def test_ring_rejects_empty():
    with pytest.raises(ValueError):
        HashRing([])


# ----------------------------------------------------------------------
# ShardedPlanCache over live in-thread shard servers
# ----------------------------------------------------------------------
def start(server) -> threading.Thread:
    """Serve in a daemon thread.  The short poll keeps ``shutdown()`` (and
    so every teardown and kill) from waiting out socketserver's 0.5 s."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return thread


@pytest.fixture
def fleet(tmp_path):
    """Three in-thread shard servers + a router facade over them."""
    servers, threads = [], []
    clients = {}
    for sid in range(3):
        store = ShardStore(str(tmp_path / f"shard-{sid}"), fsync=False)
        server = ShardServer(store, sid)
        thread = start(server)
        servers.append(server)
        threads.append(thread)
        clients[sid] = ShardClient("127.0.0.1", server.port, sid, timeout=2.0)
    cache = ShardedPlanCache(clients, maxsize_per_shard=64)
    yield cache, servers
    cache.close()
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


def test_a_failed_cold_compute_still_counts_its_miss(fleet, enabled_obs):
    cache, _ = fleet
    registry, _ = enabled_obs

    def factory():
        raise RuntimeError("deadline")

    with pytest.raises(RuntimeError):
        cache.get_or_compute_routed(sha(1), factory)
    assert registry.counter("shard.misses").value == 1
    assert registry.counter("shard.hits").value == 0


def test_concurrent_cold_misses_compute_once(fleet):
    cache, _ = fleet
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    calls = []
    results = []

    def worker():
        barrier.wait()
        results.append(
            cache.get_or_compute(sha(9), lambda: calls.append(1) or {"v": 9})
        )

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert calls == [1]
    assert sorted(cached for _, cached in results) == [False] + [True] * 5
    assert all(payload == {"v": 9} for payload, _ in results)


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


def test_client_signals_unavailable_for_dead_port(fleet):
    cache, servers = fleet
    kill(servers[1])
    client = cache.client(1)
    with pytest.raises(ShardUnavailable):
        client.get(sha(1))
    assert client.ping() is False


# ----------------------------------------------------------------------
# Pooled shard connections
# ----------------------------------------------------------------------
def count_accepts(server) -> list:
    """Record each connection ``server`` accepts from now on."""
    accepted: list = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = counting
    return accepted


def test_sequential_rpcs_reuse_one_connection(fleet):
    cache, servers = fleet
    accepted = count_accepts(servers[0])
    client = cache.client(0)
    for i in range(20):
        client.put(sha(i), {"v": i})
        assert client.get(sha(i)) == {"v": i}
    assert len(accepted) == 1


def test_two_threads_hold_at_most_two_connections(fleet):
    cache, servers = fleet
    accepted = count_accepts(servers[0])
    client = cache.client(0)
    errors: list = []

    def worker(offset):
        try:
            for i in range(30):
                client.put(sha(offset + i), {"v": i})
                client.get(sha(offset + i))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k * 100,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert 1 <= len(accepted) <= 2


def test_pooled_client_is_unavailable_after_kill(fleet):
    cache, servers = fleet
    client = cache.client(2)
    assert client.ping() is True
    kill(servers[2])
    with pytest.raises(ShardUnavailable):
        client.get(sha(1))


def test_stale_pooled_socket_reconnects_once(tmp_path, enabled_obs):
    registry, _ = enabled_obs
    first = ShardServer(ShardStore(str(tmp_path / "a"), fsync=False), 0)
    port = first.port
    thread = start(first)
    client = ShardClient("127.0.0.1", port, 0, timeout=2.0)
    client.put(sha(1), {"v": 1})
    kill(first)
    thread.join(timeout=5)
    first.store.close()

    # A worker restarted on the same port: the pooled socket is stale.
    second = ShardServer(ShardStore(str(tmp_path / "b"), fsync=False), 0, port=port)
    accepted = count_accepts(second)
    thread = start(second)
    plan = FaultPlan([FaultRule("shard.rpc", "delay", seconds=0.0)])
    calls_before = registry.counter("shard.rpc_calls").value
    try:
        with faults.installed(plan):
            client.put(sha(2), {"v": 2})
        assert second.store.get(sha(2)) == {"v": 2}
        assert plan.rules[0].triggered == 1
        assert registry.counter("shard.rpc_calls").value == calls_before + 1
        assert registry.counter("shard.rpc_failures").value == 0
        assert len(accepted) == 1
    finally:
        client.close()
        kill(second)
        second.store.close()


@pytest.mark.parametrize("op", ["keys", "clear", "compact", "invalidate", "bogus"])
def test_shard_answers_an_unknown_op_with_a_structured_error(tmp_path, op):
    """A worker answers only the ops ShardClient sends (ping, get, put,
    stats); anything else is an error line, not a dropped connection."""
    server = ShardServer(ShardStore(str(tmp_path / "s"), fsync=False), 0)
    start(server)
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=2.0
        ) as conn, conn.makefile("rb") as reader:
            conn.sendall(json.dumps({"op": op}).encode("utf-8") + b"\n")
            answer = json.loads(reader.readline())
            conn.sendall(b'{"op":"ping"}\n')
            assert json.loads(reader.readline())["pong"] is True
    finally:
        kill(server)
        server.store.close()
    assert answer == {"ok": False, "error": f"ShardError: unknown shard op {op!r}"}


def _silent_after_first_answer(listener: socket.socket, stop: threading.Event):
    """Accept connections; answer one ping on the first, then go quiet."""
    held = []
    answered = False
    listener.settimeout(0.05)
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        held.append(conn)
        if not answered:
            with conn.makefile("rb") as reader:
                reader.readline()
            conn.sendall(b'{"ok":true,"pong":true}\n')
            answered = True
    for conn in held:
        conn.close()


def test_wedged_shard_costs_one_timeout_not_two():
    timeout = 0.5
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(
            target=_silent_after_first_answer, args=(listener, stop), daemon=True
        )
        server.start()
        client = ShardClient("127.0.0.1", listener.getsockname()[1], 0, timeout=timeout)
        try:
            assert client.ping() is True  # leaves one pooled connection
            for _ in range(2):  # pooled, then fresh
                started = time.monotonic()
                with pytest.raises(ShardUnavailable):
                    client.get(sha(1))
                assert time.monotonic() - started < 2 * timeout
        finally:
            client.close()
            stop.set()
            server.join(timeout=5)
    assert not server.is_alive()


def test_set_client_closes_the_replaced_clients_idle_sockets(fleet):
    cache, servers = fleet
    old = cache.client(1)
    assert old.ping() is True
    (sock, _reader), = old._idle
    cache.set_client(1, ShardClient("127.0.0.1", servers[1].port, 1, timeout=2.0))
    assert sock.fileno() == -1
    assert old._idle == []
    assert cache.client(1).ping() is True


def test_planner_protocol_parity_with_plancache():
    """Both cache tiers expose the planner-facing methods."""
    for method in ("get_or_compute", "stats"):
        assert callable(getattr(PlanCache, method))
        assert callable(getattr(ShardedPlanCache, method))
