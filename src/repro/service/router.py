"""Consistent-hashing router and shard fleet for the sharded plan cache.

Three layers, bottom-up:

* :class:`HashRing` — a classic consistent-hashing ring with virtual
  nodes.  Placement depends only on the key bytes and the shard-id set
  (``stable_key_hash`` + SHA-256 tokens, never the randomized builtin
  ``hash()``), so every front-end process and every restart routes a key
  to the same shard, and adding/removing one shard moves only ~1/N of
  the keyspace.
* :class:`ShardedPlanCache` — the front-end facade that speaks the
  planner's cache protocol (``get_or_compute`` / ``stats``) but serves
  every key from its ring shard over RPC.  When a shard is down (marked
  by the fleet's probe loop, or discovered via a failed RPC) the key
  fails over to the next shard on its preference list; when *all*
  shards are down the plan is computed and returned uncached
  (``shard.put_drops``) — a dead cache tier degrades latency, never
  availability.
* :class:`ShardFleet` — spawns the ``python -m repro.service.shard``
  worker processes, parses their banners, and supervises them with one
  probe thread (SIGKILL a worker and its keys fail over within a ping
  interval while the fleet restarts it; the restarted worker warm-starts
  from its journal).  It owns clean shutdown, restarts in flight included.
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
from repro.service.keys import stable_key_hash
from repro.service.plancache import SingleFlight
from repro.service.shard import LOOPBACK, ShardClient, ShardError, ShardUnavailable

__all__ = ["HashRing", "ShardedPlanCache", "ShardFleet", "BANNER_RE"]

#: Virtual nodes per shard: enough to balance a handful of shards to a few
#: percent without making ring construction or lookup noticeable.
REPLICAS = 64

#: Per-RPC socket timeout of every shard client the fleet builds.
RPC_TIMEOUT_S = 2.0

#: Seconds a spawned shard worker may take to print its banner.
BOOT_TIMEOUT_S = 20.0

#: Seconds between probe passes over every shard.
PING_INTERVAL_S = 0.5

#: Consecutive failed pings (worker process alive) before a shard counts as
#: wedged and is failed over and restarted.
MAX_PING_FAILURES = 3

#: Delay before a restart starts (lets a crash loop breathe).
RESTART_BACKOFF_S = 0.25

#: Worker banner: ``repro-shard 2 listening on 127.0.0.1:45123 pid=77 recovered=9``
BANNER_RE = re.compile(
    r"repro-shard (?P<shard>\d+) listening on "
    r"(?P<host>[\d.]+):(?P<port>\d+) pid=(?P<pid>\d+) recovered=(?P<recovered>\d+)"
)


class HashRing:
    """Consistent-hashing ring over integer shard ids with virtual nodes."""

    def __init__(self, shard_ids: Sequence[int]):
        ids = sorted({int(s) for s in shard_ids})
        if not ids:
            raise ValueError("HashRing needs at least one shard id")
        self.shard_ids = ids
        points: List[Tuple[int, int]] = []
        for sid in ids:
            for replica in range(REPLICAS):
                token = hashlib.sha256(f"shard-{sid}#{replica}".encode()).digest()
                points.append((int.from_bytes(token[:8], "big"), sid))
        points.sort()
        self._points = points
        self._tokens = [token for token, _ in points]

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
    """Planner cache tier that routes keys across shard workers.

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
    ):
        if not clients:
            raise ValueError("ShardedPlanCache needs at least one shard client")
        self._clients = dict(clients)
        self._ring = HashRing(sorted(self._clients))
        self.maxsize = int(maxsize_per_shard) * len(self._clients)
        self.ttl = ttl
        self._down: set = set()
        self._state_lock = threading.Lock()
        self._single_flight = SingleFlight()

    # -- shard liveness (router view; the fleet's probe loop drives it) --
    def client(self, shard_id: int) -> ShardClient:
        return self._clients[shard_id]

    def set_client(self, shard_id: int, client: ShardClient) -> None:
        """Swap in the endpoint of a restarted worker (new ephemeral port)
        and close the replaced client's idle connections."""
        with self._state_lock:
            old = self._clients.get(shard_id)
            self._clients[shard_id] = client
        if old is not None and old is not client:
            old.close()

    def close(self) -> None:
        """Close every shard client's idle connections."""
        with self._state_lock:
            clients = list(self._clients.values())
        for client in clients:
            client.close()

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

    # -- routed primitives ----------------------------------------------
    # A failed RPC benches its shard at once (``mark_down``): the next
    # requests skip it instead of each eating a connect timeout.  The
    # fleet's probe loop un-benches it on its next clean probe.
    def _get_routed(self, key: str) -> Tuple[Optional[dict], Optional[int]]:
        """(payload-or-None, shard that answered or None if all down)."""
        _, order = self._serving_order(key)
        for sid in order:
            with self._state_lock:
                client = self._clients[sid]
            try:
                payload = client.get(key)
            except (ShardUnavailable, ShardError):
                self.mark_down(sid)
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
            except (ShardUnavailable, ShardError):
                self.mark_down(sid)
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

    # -- planner cache protocol -----------------------------------------
    def get_or_compute(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool]:
        payload, cached, _ = self.get_or_compute_routed(key, factory)
        return payload, cached

    def get_or_compute_routed(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool, Dict[str, object]]:
        """``(payload, was_cached, route)`` — the planner stamps ``route``.

        Single-flight per key within this front end (the same
        :class:`~repro.service.plancache.SingleFlight` a local cache uses);
        shard workers are shared state across front ends, so a second front
        end racing the same cold key costs one duplicate compute, never
        corruption.
        """
        primary = self._ring.primary(key)

        def compute() -> dict:
            # Counted before the compute runs, so a failed one still counts.
            metrics.inc(names.SHARD_MISSES)
            return factory()

        payload, served_by, cached = self._single_flight(
            key, self._get_routed, compute, self._put_routed
        )
        if cached:
            metrics.inc(names.SHARD_HITS)
        return payload, cached, self._route_info(primary, served_by)

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
    """Spawn, supervise, and tear down the shard worker processes.

    One probe thread checks every shard each ``PING_INTERVAL_S``:
    ``proc.poll()``, then ``client.ping()``.  A dead worker fails over at
    once, a wedged one after ``MAX_PING_FAILURES`` consecutive failed
    pings; either way one restart thread boots a fresh worker after
    ``RESTART_BACKOFF_S``.  Every clean probe returns the shard to the
    ring.  Restarts are unlimited; a failed one is reported on stderr and
    retried by a later probe.
    """

    def __init__(
        self,
        n_shards: int,
        data_dir: str,
        maxsize_per_shard: int = 4096,
        ttl: Optional[float] = None,
        journal_max_bytes: int = 1 << 20,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if journal_max_bytes < 1:  # each worker would refuse it at boot
            raise ValueError(
                f"journal_max_bytes must be >= 1, got {journal_max_bytes}"
            )
        self.n_shards = int(n_shards)
        self.data_dir = os.path.abspath(data_dir)
        self.maxsize_per_shard = int(maxsize_per_shard)
        self.ttl = ttl
        self.journal_max_bytes = int(journal_max_bytes)
        self._procs: Dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self.cache: Optional[ShardedPlanCache] = None
        # Probe-loop state.  ``_up`` is the fleet's own view, kept apart
        # from the router's ``_down``: a shard the router benched after a
        # failed RPC is still up here until a probe fails, so each death
        # counts once in ``shard.deaths``.
        self._up: set = set()
        self._failures: Dict[int, int] = {}
        self._restarting: Dict[int, threading.Thread] = {}
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- boot -----------------------------------------------------------
    def start(self) -> ShardedPlanCache:
        os.makedirs(self.data_dir, exist_ok=True)
        clients: Dict[int, ShardClient] = {}
        try:
            for sid in range(self.n_shards):
                self._procs[sid], clients[sid] = self._spawn(sid)
        except Exception:
            self.shutdown()  # reap the workers that did boot
            raise
        cache = ShardedPlanCache(
            clients,
            maxsize_per_shard=self.maxsize_per_shard,
            ttl=self.ttl,
        )
        metrics.set_gauge(names.SHARD_UP, self.n_shards)
        monitor = threading.Thread(
            target=self._probe_loop, name="shard-probe", daemon=True
        )
        with self._lock:
            self.cache = cache
            self._up = set(clients)
            self._failures = dict.fromkeys(clients, 0)
            self._monitor = monitor
        monitor.start()
        return cache

    def _shard_dir(self, shard_id: int) -> str:
        return os.path.join(self.data_dir, f"shard-{shard_id}")

    def _spawn(self, shard_id: int) -> Tuple[subprocess.Popen, ShardClient]:
        """Boot one worker; returns its process and a client for its port."""
        cmd = [
            sys.executable,
            "-m",
            "repro.service.shard",
            "--shard-id",
            str(shard_id),
            "--data-dir",
            self._shard_dir(shard_id),
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
        return proc, ShardClient(LOOPBACK, port, shard_id, timeout=RPC_TIMEOUT_S)

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
        thread.join(BOOT_TIMEOUT_S)
        port = result.get("port")
        if isinstance(port, int):
            return port
        if result.get("eof"):
            # It closed stdout without a banner: it is exiting, so wait
            # for the status rather than report a still-running process.
            raise RuntimeError(
                "shard worker exited before printing its banner "
                f"(exit={proc.wait(RPC_TIMEOUT_S)})"
            )
        raise RuntimeError(
            "shard worker did not print its banner within "
            f"{BOOT_TIMEOUT_S}s (exit={proc.poll()})"
        )

    # -- probe loop -----------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop.is_set():
            self.check_once()
            self._stop.wait(PING_INTERVAL_S)

    def check_once(self) -> None:
        """One probe pass over every shard (the loop body)."""
        for sid in range(self.n_shards):
            self._probe(sid)

    def _probe(self, shard_id: int) -> None:
        cache = self.cache
        assert cache is not None
        with self._lock:
            proc = self._procs.get(shard_id)
        try:
            alive = proc is not None and proc.poll() is None
            # Outside the lock: a wedged worker holds the ping for a whole
            # RPC timeout.
            healthy = alive and cache.client(shard_id).ping()
        except Exception as exc:  # noqa: BLE001 - a probe that raises is a
            # failed probe, never a dead loop: the loop must outlive every
            # worker.
            print(
                f"shard fleet: probe of shard {shard_id} raised {exc!r}",
                file=sys.stderr,
                flush=True,
            )
            alive = healthy = False
        if healthy:
            self._failures[shard_id] = 0
            # Re-mark up on *every* clean probe (idempotent): a shard the
            # router benched after a transient RPC error comes back without
            # a restart.
            self._up.add(shard_id)
            cache.mark_up(shard_id)
            return
        self._failures[shard_id] += 1
        if alive and self._failures[shard_id] < MAX_PING_FAILURES:
            return
        if shard_id in self._up:
            # Requests fail over before the restart begins.
            self._up.discard(shard_id)
            cache.mark_down(shard_id)
            metrics.inc(names.SHARD_DEATHS)
        thread = threading.Thread(
            target=self._restart,
            args=(shard_id,),
            name=f"restart-shard-{shard_id}",
            daemon=True,
        )
        with self._lock:
            if shard_id in self._restarting or self._stop.is_set():
                return
            self._restarting[shard_id] = thread
        thread.start()

    def _restart(self, shard_id: int) -> None:
        """Kill whatever is left of the worker and boot a fresh one.

        The new worker replays its journal before binding, so by the time
        the banner prints its keys are warm again; the next clean probe
        returns the shard to the ring.
        """
        try:
            if self._stop.wait(RESTART_BACKOFF_S):
                return
            with self._lock:
                old = self._procs.get(shard_id)
            if old is not None:
                _reap(old)
            proc, client = self._spawn(shard_id)
            with self._lock:
                stopped = self._stop.is_set()
                if not stopped:
                    self._procs[shard_id] = proc
            if stopped:
                # shutdown() has already collected the workers it stops.
                _reap(proc)
                return
            assert self.cache is not None
            self.cache.set_client(shard_id, client)
            metrics.inc(names.SHARD_RESTARTS)
        except Exception as exc:  # noqa: BLE001 - the shard stays down and
            # a later probe retries; raising would only end this thread.
            print(
                f"shard fleet: restart of shard {shard_id} failed "
                f"({exc!r}); a later probe retries it",
                file=sys.stderr,
                flush=True,
            )
        finally:
            with self._lock:
                del self._restarting[shard_id]

    # -- introspection / teardown ---------------------------------------
    def pids(self) -> Dict[int, int]:
        with self._lock:
            return {
                sid: proc.pid
                for sid, proc in self._procs.items()
                if proc.poll() is None
            }

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the probe loop, wait for restarts in flight, stop every worker.

        A restart that outlives ``timeout`` finds the fleet stopped and
        reaps the worker it booted itself, so no worker outlives its fleet.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stop.set()
            monitor = self._monitor
            self._monitor = None
        # Join outside the lock: a probe pass and a restart both take it.
        if monitor is not None:
            monitor.join(timeout)
        with self._lock:
            restarts = list(self._restarting.values())
        for thread in restarts:
            # One not started yet finds ``_stop`` set and boots nothing.
            if thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            procs = dict(self._procs)
            self._procs.clear()
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
        cache = self.cache
        if cache is not None:
            cache.close()


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs, wait for it, close its banner pipe."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
