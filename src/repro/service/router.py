"""Consistent-hashing router and shard fleet for the sharded plan cache.

Three layers, bottom-up:

* :class:`HashRing` — a classic consistent-hashing ring with virtual
  nodes.  Placement depends only on the key bytes and the shard-id set
  (``stable_key_hash`` + SHA-256 tokens, never the randomized builtin
  ``hash()``), so every front-end process and every restart routes a key
  to the same shard, and adding/removing one shard moves only ~1/N of
  the keyspace.
* :class:`ShardedPlanCache` — the front-end facade that speaks the
  :class:`~repro.service.plancache.PlanCache` protocol
  (``get_or_compute`` / ``invalidate`` / ``stats``) but serves every key
  from its ring shard over RPC.  When a shard is down (marked by the
  supervisor, or discovered via a failed RPC) the key fails over to the
  next shard on its preference list; when *all* shards are down the plan
  is computed and returned uncached (``shard.put_drops``) — a dead cache
  tier degrades latency, never availability.
* :class:`ShardFleet` — spawns the ``python -m repro.service.shard``
  worker processes, parses their banners, wires a
  :class:`~repro.resilience.supervisor.Supervisor` over them (SIGKILL a
  worker and its keys fail over within a ping interval while the
  supervisor restarts it; the restarted worker warm-starts from its
  journal), and owns clean shutdown.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import re
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability import metrics
from repro.observability import names
from repro.resilience.supervisor import Supervisor, SupervisorPolicy
from repro.service.keys import stable_key_hash
from repro.service.shard import ShardClient, ShardError, ShardUnavailable

__all__ = ["HashRing", "ShardedPlanCache", "ShardFleet", "BANNER_RE"]

#: Virtual nodes per shard: enough to balance a handful of shards to a few
#: percent without making ring construction or lookup noticeable.
DEFAULT_REPLICAS = 64

#: Striped single-flight locks for cold keys (same rationale as PlanCache).
_N_STRIPES = 64

#: Worker banner: ``repro-shard 2 listening on 127.0.0.1:45123 pid=77 recovered=9``
BANNER_RE = re.compile(
    r"repro-shard (?P<shard>\d+) listening on "
    r"(?P<host>[\d.]+):(?P<port>\d+) pid=(?P<pid>\d+) recovered=(?P<recovered>\d+)"
)


class HashRing:
    """Consistent-hashing ring over integer shard ids with virtual nodes."""

    def __init__(self, shard_ids: Sequence[int], replicas: int = DEFAULT_REPLICAS):
        ids = sorted({int(s) for s in shard_ids})
        if not ids:
            raise ValueError("HashRing needs at least one shard id")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shard_ids = ids
        self.replicas = int(replicas)
        points: List[Tuple[int, int]] = []
        for sid in ids:
            for replica in range(self.replicas):
                token = hashlib.sha256(f"shard-{sid}#{replica}".encode()).digest()
                points.append((int.from_bytes(token[:8], "big"), sid))
        points.sort()
        self._points = points
        self._tokens = [token for token, _ in points]

    def __len__(self) -> int:
        return len(self.shard_ids)

    def primary(self, key: str) -> int:
        """The shard that owns ``key`` when every shard is healthy."""
        return self.preference(key)[0]

    def preference(self, key: str) -> List[int]:
        """All shards in failover order: ring walk from the key's point.

        The first entry is the primary; each subsequent entry is where the
        key lands if everything before it is down.  The order depends only
        on the key and the shard-id set, so every front end fails over to
        the *same* fallback shard (no split-brain caching).
        """
        start = bisect.bisect_right(self._tokens, stable_key_hash(key))
        n_points = len(self._points)
        seen: set = set()
        order: List[int] = []
        for i in range(n_points):
            sid = self._points[(start + i) % n_points][1]
            if sid not in seen:
                seen.add(sid)
                order.append(sid)
                if len(order) == len(self.shard_ids):
                    break
        return order


class ShardedPlanCache:
    """PlanCache-protocol facade that routes keys across shard workers.

    The planner talks to this exactly like it talks to a local
    :class:`~repro.service.plancache.PlanCache`; the extra
    :meth:`get_or_compute_routed` variant additionally returns the route
    (primary / served-by / failover) so responses can be stamped the way
    the degradation ladder stamps evaluator fallbacks.
    """

    def __init__(
        self,
        clients: Dict[int, ShardClient],
        maxsize_per_shard: int = 4096,
        ttl: Optional[float] = None,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if not clients:
            raise ValueError("ShardedPlanCache needs at least one shard client")
        self._clients = dict(clients)
        self._ring = HashRing(sorted(self._clients), replicas=replicas)
        self.maxsize = int(maxsize_per_shard) * len(self._clients)
        self.ttl = ttl
        self._down: set = set()
        self._state_lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(_N_STRIPES)]

    # -- shard liveness (router view; the supervisor drives it) ---------
    @property
    def n_shards(self) -> int:
        return len(self._clients)

    def client(self, shard_id: int) -> ShardClient:
        return self._clients[shard_id]

    def set_client(self, shard_id: int, client: ShardClient) -> None:
        """Swap in the endpoint of a restarted worker (new ephemeral port)."""
        with self._state_lock:
            self._clients[shard_id] = client

    def mark_down(self, shard_id: int) -> bool:
        """Bench a shard; returns True on an up->down transition."""
        with self._state_lock:
            if shard_id in self._down:
                return False
            self._down.add(shard_id)
            up = len(self._clients) - len(self._down)
        metrics.set_gauge(names.SHARD_UP, up)
        return True

    def mark_up(self, shard_id: int) -> bool:
        """Return a shard to service; returns True on a down->up transition."""
        with self._state_lock:
            if shard_id not in self._down:
                return False
            self._down.discard(shard_id)
            up = len(self._clients) - len(self._down)
        metrics.set_gauge(names.SHARD_UP, up)
        return True

    def down_shards(self) -> List[int]:
        with self._state_lock:
            return sorted(self._down)

    def _serving_order(self, key: str) -> Tuple[int, List[int]]:
        """(ring primary, failover-ordered list of currently-up shards)."""
        preference = self._ring.preference(key)
        with self._state_lock:
            down = set(self._down)
        return preference[0], [sid for sid in preference if sid not in down]

    def _note_failure(self, shard_id: int, exc: Exception) -> None:
        # Bench immediately: the next requests skip the dead shard instead
        # of each eating a connect timeout.  The supervisor un-benches it
        # on the next clean health probe.
        self.mark_down(shard_id)

    # -- routed primitives ----------------------------------------------
    def _get_routed(self, key: str) -> Tuple[Optional[dict], Optional[int]]:
        """(payload-or-None, shard that answered or None if all down)."""
        _, order = self._serving_order(key)
        for sid in order:
            with self._state_lock:
                client = self._clients[sid]
            try:
                payload = client.get(key)
            except (ShardUnavailable, ShardError) as exc:
                self._note_failure(sid, exc)
                continue
            return payload, sid  # hit *or* authoritative miss — stop here
        return None, None

    def _put_routed(self, key: str, payload: dict) -> Optional[int]:
        """Store on the first reachable shard in ring order (or drop)."""
        _, order = self._serving_order(key)
        for sid in order:
            with self._state_lock:
                client = self._clients[sid]
            try:
                client.put(key, payload)
            except (ShardUnavailable, ShardError) as exc:
                self._note_failure(sid, exc)
                continue
            return sid
        metrics.inc(names.SHARD_PUT_DROPS)
        return None

    def _route_info(
        self, primary: int, served_by: Optional[int]
    ) -> Dict[str, object]:
        failover = served_by != primary
        if failover:
            metrics.inc(names.SHARD_FAILOVERS)
        return {
            "primary": primary,
            "served_by": served_by,
            "failover": failover,
            "down": self.down_shards(),
        }

    # -- PlanCache protocol ---------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        payload, _ = self._get_routed(key)
        metrics.inc(names.SHARD_HITS if payload is not None else names.SHARD_MISSES)
        return payload

    def put(self, key: str, payload: dict) -> List[str]:
        self._put_routed(key, payload)
        return []

    def get_or_compute(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool]:
        payload, cached, _ = self.get_or_compute_routed(key, factory)
        return payload, cached

    def get_or_compute_routed(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool, Dict[str, object]]:
        """``(payload, was_cached, route)`` — the planner stamps ``route``.

        Single-flight per key within this front end (striped locks, same
        discipline as ``PlanCache.get_or_compute``); shard workers are
        shared state across front ends, so a second front end racing the
        same cold key costs one duplicate compute, never corruption.
        """
        primary = self._ring.primary(key)
        payload, served_by = self._get_routed(key)
        if payload is not None:
            metrics.inc(names.SHARD_HITS)
            return payload, True, self._route_info(primary, served_by)
        stripe = self._stripes[stable_key_hash(key) % _N_STRIPES]
        with stripe:
            payload, served_by = self._get_routed(key)
            if payload is not None:
                metrics.inc(names.SHARD_HITS)
                return payload, True, self._route_info(primary, served_by)
            metrics.inc(names.SHARD_MISSES)
            with metrics.timer(names.PLANCACHE_COMPUTE):
                payload = factory()
            served_by = self._put_routed(key, payload)
            return payload, False, self._route_info(primary, served_by)

    def invalidate(self, key: str) -> bool:
        """Broadcast the invalidate: failover may have cached ``key`` on any
        shard, so only the shard that never saw it may skip the record."""
        removed = False
        with self._state_lock:
            clients = dict(self._clients)
            down = set(self._down)
        for sid, client in sorted(clients.items()):
            if sid in down:
                continue
            try:
                removed = client.invalidate(key) or removed
            except (ShardUnavailable, ShardError) as exc:
                self._note_failure(sid, exc)
        return removed

    def __len__(self) -> int:
        total = 0
        for shard in self.stats()["shards"].values():  # type: ignore[union-attr]
            size = shard.get("size") if isinstance(shard, dict) else None
            if isinstance(size, int):
                total += size
        return total

    def stats(self) -> Dict[str, object]:
        """Fleet stats for ``/healthz``: per-shard size/pid/journal + ring."""
        with self._state_lock:
            clients = dict(self._clients)
            down = set(self._down)
        shards: Dict[str, object] = {}
        for sid, client in sorted(clients.items()):
            entry: Dict[str, object] = {
                "up": sid not in down,
                "host": client.host,
                "port": client.port,
            }
            if sid not in down:
                try:
                    entry.update(client.stats())
                except (ShardUnavailable, ShardError) as exc:
                    entry["up"] = False
                    entry["error"] = str(exc)
            shards[str(sid)] = entry
        return {
            "sharded": True,
            "shards": shards,
            "n_shards": len(clients),
            "down": sorted(down),
            "maxsize": self.maxsize,
            "ttl": self.ttl,
        }


class ShardFleet:
    """Spawn, supervise, and tear down the shard worker processes."""

    def __init__(
        self,
        n_shards: int,
        data_dir: str,
        maxsize_per_shard: int = 4096,
        ttl: Optional[float] = None,
        journal_max_bytes: int = 1 << 20,
        host: str = "127.0.0.1",
        rpc_timeout: float = 2.0,
        boot_timeout: float = 20.0,
        policy: Optional[SupervisorPolicy] = None,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.data_dir = os.path.abspath(data_dir)
        self.maxsize_per_shard = int(maxsize_per_shard)
        self.ttl = ttl
        self.journal_max_bytes = int(journal_max_bytes)
        self.host = host
        self.rpc_timeout = float(rpc_timeout)
        self.boot_timeout = float(boot_timeout)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.replicas = int(replicas)
        self._procs: Dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self.cache: Optional[ShardedPlanCache] = None
        self.supervisor: Optional[Supervisor] = None

    # -- boot -----------------------------------------------------------
    def start(self) -> ShardedPlanCache:
        os.makedirs(self.data_dir, exist_ok=True)
        clients: Dict[int, ShardClient] = {}
        try:
            for sid in range(self.n_shards):
                clients[sid] = self._spawn(sid)
        except Exception:
            self.shutdown()  # reap the workers that did boot
            raise
        cache = ShardedPlanCache(
            clients,
            maxsize_per_shard=self.maxsize_per_shard,
            ttl=self.ttl,
            replicas=self.replicas,
        )
        with self._lock:
            self.cache = cache
        metrics.set_gauge(names.SHARD_UP, self.n_shards)
        supervisor = Supervisor(
            policy=self.policy, on_down=self._on_down, on_up=self._on_up
        )
        for sid in range(self.n_shards):
            supervisor.add(
                name=str(sid),
                is_alive=lambda s=sid: self._is_alive(s),
                ping=lambda s=sid: self._ping(s),
                restart=lambda s=sid: self._restart(s),
            )
        supervisor.start()
        with self._lock:
            self.supervisor = supervisor
        return cache

    def _shard_dir(self, shard_id: int) -> str:
        return os.path.join(self.data_dir, f"shard-{shard_id}")

    def _spawn(self, shard_id: int) -> ShardClient:
        cmd = [
            sys.executable,
            "-c",
            # Not `-m repro.service.shard`: the package __init__ imports the
            # module, and runpy warns when it re-executes an already-imported
            # module.  A plain import + main() is the same entry point.
            "import sys; from repro.service.shard import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--shard-id",
            str(shard_id),
            "--data-dir",
            self._shard_dir(shard_id),
            "--host",
            self.host,
            "--port",
            "0",
            "--maxsize",
            str(self.maxsize_per_shard),
            "--journal-max-bytes",
            str(self.journal_max_bytes),
        ]
        if self.ttl is not None:
            cmd += ["--ttl", str(self.ttl)]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            port = self._read_banner(proc)
        except Exception:
            proc.kill()
            proc.wait()
            raise
        with self._lock:
            self._procs[shard_id] = proc
        return ShardClient(self.host, port, shard_id, timeout=self.rpc_timeout)

    def _read_banner(self, proc: subprocess.Popen) -> int:
        """Wait for the worker's banner; returns its bound port."""
        result: Dict[str, object] = {}

        def read() -> None:
            assert proc.stdout is not None
            for line in proc.stdout:
                match = BANNER_RE.search(line)
                if match:
                    result["port"] = int(match.group("port"))
                    return
            result["eof"] = True

        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        thread.join(self.boot_timeout)
        port = result.get("port")
        if not isinstance(port, int):
            raise RuntimeError(
                "shard worker did not print its banner within "
                f"{self.boot_timeout}s (exit={proc.poll()})"
            )
        return port

    # -- supervisor callbacks -------------------------------------------
    def _is_alive(self, shard_id: int) -> bool:
        with self._lock:
            proc = self._procs.get(shard_id)
        return proc is not None and proc.poll() is None

    def _ping(self, shard_id: int) -> bool:
        cache = self.cache
        if cache is None:
            return False
        return cache.client(shard_id).ping()

    def _restart(self, shard_id: int) -> None:
        """Kill whatever is left of the worker and boot a fresh one.

        The new worker replays its journal before binding, so by the time
        the banner prints its keys are warm again; the supervisor's next
        clean ping returns the shard to the ring.
        """
        with self._lock:
            old = self._procs.get(shard_id)
        if old is not None and old.poll() is None:
            old.kill()
        if old is not None:
            old.wait()
        client = self._spawn(shard_id)
        cache = self.cache
        if cache is not None:
            cache.set_client(shard_id, client)
        metrics.inc(names.SHARD_RESTARTS)

    def _on_down(self, name: str) -> None:
        cache = self.cache
        if cache is not None:
            cache.mark_down(int(name))
        # The supervisor fires on_down exactly once per up->down transition
        # (the router may have benched the shard already — still one death).
        metrics.inc(names.SHARD_DEATHS)

    def _on_up(self, name: str) -> None:
        cache = self.cache
        if cache is not None:
            cache.mark_up(int(name))

    # -- introspection / teardown ---------------------------------------
    def pids(self) -> Dict[int, int]:
        with self._lock:
            return {
                sid: proc.pid
                for sid, proc in self._procs.items()
                if proc.poll() is None
            }

    def shutdown(self, timeout: float = 5.0) -> None:
        with self._lock:
            supervisor = self.supervisor
            self.supervisor = None
        if supervisor is not None:
            # Stop outside the lock: it joins the monitor thread, whose
            # restart callbacks take this lock.
            supervisor.stop()
        with self._lock:
            procs = dict(self._procs)
            self._procs.clear()
        deadline = time.monotonic() + timeout
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
