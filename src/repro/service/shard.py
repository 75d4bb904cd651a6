"""One plan-cache shard: journaled store, worker process, and RPC client.

A shard owns a contiguous arc of the consistent-hashing ring (see
:mod:`repro.service.router`) and keeps its slice of the plan cache both in
memory (:class:`~repro.service.plancache.PlanCache`) and on disk
(:class:`~repro.service.journal.ShardJournal`).  Three pieces live here:

* :class:`ShardStore` — the ``PlanCache`` subclass that journals every
  ``put`` and capacity eviction *before* the in-memory mutation, so a
  SIGKILL at any instant recovers to the exact committed state via
  ``base + journal`` replay (:meth:`ShardStore.recover`).  Single-process
  ``repro-serve --shard-dir D`` serves from one of these in-process at
  ``D/shard-0``;
* :class:`ShardServer` + :func:`main` — the worker process:
  ``python -m repro.service.shard --shard-id K --data-dir D`` binds a
  loopback TCP port (the RPC has no authentication, so it never binds
  another address), replays its journal (per-shard warm start), prints a
  banner the parent parses, and answers newline-delimited JSON requests;
* :class:`ShardClient` — the router side of that protocol.  Every call
  passes the ``shard.rpc`` fault site; transport failures raise
  :class:`ShardUnavailable`, which the router treats as "fail this
  shard's keys over to the surviving ring".

The protocol is one JSON line per request and one per answer, each sent
in a single write with ``TCP_NODELAY`` on both ends.  A worker answers
any number of requests on one connection, and each client keeps a small
free list of idle connections, so a warm RPC costs no TCP handshake.  A
connection goes back to the free list only after a complete answer line
was read from it, so no late or partial answer is ever read by the next
call.  A pooled connection can go stale (the worker restarted or closed
it): when a reused connection hits EOF or a reset before a full line
arrives, the call reconnects once; ``get`` and ``put`` (same key and
payload) are idempotent, so sending the request again is safe.  A
timeout is never retried — a wedged worker costs one ``timeout``, not
two — and any failure on a fresh connection raises
:class:`ShardUnavailable`.  :meth:`ShardServer.server_close` shuts its
open connections down, so a stopped worker stops answering on pooled
sockets too.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import socket
import socketserver
import sys
import threading
import time
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Set, Tuple

from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.service.journal import ShardJournal
from repro.service.plancache import PlanCache

__all__ = [
    "ShardError",
    "ShardUnavailable",
    "ShardStore",
    "recover_or_cold",
    "ShardServer",
    "ShardClient",
    "LOOPBACK",
    "main",
]

MAX_LINE_BYTES = 16 * 1024 * 1024

#: The only address a shard worker binds and the router connects to.
LOOPBACK = "127.0.0.1"


class ShardError(RuntimeError):
    """The shard answered, but with an application-level error."""


class ShardUnavailable(RuntimeError):
    """The shard could not be reached (dead, wedged, or injected fault)."""


# ----------------------------------------------------------------------
# Journaled store
# ----------------------------------------------------------------------
class ShardStore(PlanCache):
    """A :class:`PlanCache` whose every mutation is journaled first.

    ``put`` — and each capacity eviction it makes room with — appends its
    journal record before the in-memory ``PlanCache`` mutation.  Reads and
    the single-flight ``get_or_compute`` are inherited unchanged (its
    ``put`` is this journaled one), and mutations serialize on a writer
    lock of their own, so a ``get`` never waits on an fsync.

    Ordering contract: the journal record is durable *before* the
    in-memory mutation happens.  A crash after the append but before the
    cache write replays to the post-mutation state — which is exactly what
    the caller was promised when the call returned (it never did).  A
    crash (or injected ``shard.journal.append`` fault) *during* the append
    leaves the cache untouched and the journal's committed prefix intact.
    """

    def __init__(
        self,
        directory: str,
        maxsize: int = 4096,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = 1 << 20,
        fsync: bool = True,
    ):
        super().__init__(maxsize=maxsize, ttl=ttl, clock=clock)
        self.journal = ShardJournal(
            directory, max_segment_bytes=max_segment_bytes, clock=clock, fsync=fsync
        )
        self._write_lock = threading.RLock()

    # -- journaled mutations -------------------------------------------
    def put(self, key: str, payload: dict) -> None:  # type: ignore[override]
        # Stamped now: only replay (``recover``) restores an older stamp,
        # through ``PlanCache.put``.
        with self._write_lock:
            stamp = self._clock()
            # Make room first, one journaled eviction at a time, so replay
            # removes exactly what the live cache removed and no committed
            # prefix of the journal ever holds more than maxsize entries.
            for victim in self._lru_victims(key):
                self.journal.append({"op": "evict", "key": victim})
                self._evict(victim)
            self.journal.append(
                {"op": "put", "key": key, "created_at": stamp, "payload": payload}
            )
            super().put(key, payload, created_at=stamp)
            self._maybe_compact()

    def _lru_victims(self, key: str) -> List[str]:
        """The least-recently-used keys a ``put`` of ``key`` must evict."""
        with self._lock:
            excess = len(self._data) + (key not in self._data) - self.maxsize
            return list(itertools.islice(self._data, max(excess, 0)))

    def _evict(self, key: str) -> None:
        with self._lock:
            if self._data.pop(key, None) is not None:
                metrics.inc(names.PLANCACHE_EVICTIONS)
                metrics.set_gauge(names.PLANCACHE_SIZE, len(self._data))

    # -- compaction / recovery -----------------------------------------
    def _maybe_compact(self) -> None:
        if self.journal.should_compact():
            self.compact()

    def compact(self) -> int:
        with self._write_lock:
            entries = self.entries()
            self.journal.compact(entries)
            return len(entries)

    def recover(self) -> int:
        """Replay base + journal into the cache; returns entries restored.

        Entries keep their original ``created_at`` (TTLs age across the
        crash) and already-expired entries are dropped.  Replay applies
        records through a plain dict, so capacity evictions recorded in the
        journal — not the LRU's mood during replay — decide what was
        removed (as do ``invalidate`` and ``clear`` records that older
        builds wrote); the replayed entries go straight into the in-memory
        cache and are not journaled a second time.
        """
        with self._write_lock:
            result = self.journal.replay()
            restored = 0
            for key, (created_at, payload) in result.entries.items():
                if self._expired(created_at):
                    continue
                super().put(key, payload, created_at=created_at)
                restored += 1
            metrics.inc(names.SHARD_RECOVERED_ENTRIES, restored)
            return restored

    def close(self) -> None:
        self.journal.close()

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["journal"] = self.journal.stats()
        return stats


def recover_or_cold(store: ShardStore, label: str) -> int:
    """:meth:`ShardStore.recover`, degrading to an empty store on failure.

    A cold store beats no store: an unreadable base (torn by something
    outside the journal's control) is logged to stderr and the keys
    recompute.  Returns the number of entries restored.
    """
    try:
        return store.recover()
    except Exception as exc:  # noqa: BLE001 - see docstring
        print(f"{label} recovery skipped ({exc})", file=sys.stderr)
        return 0


# ----------------------------------------------------------------------
# Worker-process server
# ----------------------------------------------------------------------
class _ShardHandler(socketserver.StreamRequestHandler):
    server: "ShardServer"
    disable_nagle_algorithm = True

    def handle(self) -> None:
        """Answer request lines until the client closes the connection."""
        try:
            while True:
                line = self.rfile.readline(MAX_LINE_BYTES)
                if not line:
                    return
                if line.strip():
                    self.wfile.write(self._answer(line))
                if not line.endswith(b"\n"):
                    return  # oversized or torn line: the framing is lost
        except OSError:
            pass  # peer vanished mid-exchange; nothing left to answer

    def _answer(self, line: bytes) -> bytes:
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            response = self.server.dispatch(request)
        except Exception as exc:  # noqa: BLE001 - a shard must answer,
            # never die per-request: malformed input, an injected
            # journal fault, or a full disk all surface as a
            # structured error the router can fail over on.
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"


class ShardServer(socketserver.ThreadingTCPServer):
    """Newline-JSON RPC server around one :class:`ShardStore`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, store: ShardStore, shard_id: int, port: int = 0):
        """Bind ``LOOPBACK:port`` (``port=0`` picks an ephemeral port)."""
        super().__init__((LOOPBACK, port), _ShardHandler)
        self.store = store
        self.shard_id = int(shard_id)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and shut down every open connection.

        Handler threads are daemons serving pooled connections until the
        client hangs up; shutting their sockets down makes a stopped
        server stop answering, the way a killed worker process does.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by the peer

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True, "shard": self.shard_id}
        if op == "get":
            payload = self.store.get(str(request["key"]))
            return {"ok": True, "hit": payload is not None, "payload": payload}
        if op == "put":
            payload = request["payload"]
            if not isinstance(payload, dict):
                raise ShardError("put payload must be an object")
            self.store.put(str(request["key"]), payload)
            return {"ok": True}
        if op == "stats":
            stats = self.store.stats()
            stats["shard_id"] = self.shard_id
            stats["pid"] = os.getpid()
            return {"ok": True, "stats": stats}
        raise ShardError(f"unknown shard op {op!r}")


# ----------------------------------------------------------------------
# Router-side client
# ----------------------------------------------------------------------
class ShardClient:
    """One shard's endpoint as seen from the router.

    Every call passes the ``shard.rpc`` fault site and is counted once;
    any transport-level failure — connection refused (dead worker),
    timeout (wedged worker), injected fault — raises
    :class:`ShardUnavailable`, the router's signal to fail the key over to
    the surviving ring.  Idle connections are kept on a free list of at
    most :attr:`MAX_IDLE` entries (see the module docstring for when a
    call reconnects); :meth:`close` releases them.
    """

    #: Idle connections kept per shard: one per concurrent caller, up to
    #: the server's default admission budget.
    MAX_IDLE = 8

    def __init__(
        self, host: str, port: int, shard_id: int, timeout: float = 2.0
    ):
        self.host = host
        self.port = int(port)
        self.shard_id = int(shard_id)
        self.timeout = float(timeout)
        self._idle: List[Tuple[socket.socket, BinaryIO]] = []
        self._idle_lock = threading.Lock()
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardClient shard={self.shard_id} {self.host}:{self.port}>"

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        metrics.inc(names.SHARD_RPC_CALLS)
        data = json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"
        try:
            faults.fire("shard.rpc")  # repro-lint: disable=RS203 -- the very next clause catches InjectedFault and re-raises ShardUnavailable, which ShardedPlanCache absorbs (bench + fail over); routes past that are name-based CHA conflating ShardClient.call with unrelated call() methods
            line = self._exchange(data)
        except (OSError, faults.InjectedFault) as exc:
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        if not line.endswith(b"\n"):
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} closed the connection without answering"
            )
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} sent a malformed response"
            ) from exc
        if not isinstance(response, dict) or not response.get("ok", False):
            error = ""
            if isinstance(response, dict):
                error = str(response.get("error", ""))
            raise ShardError(f"shard {self.shard_id} error: {error}")
        return response

    def close(self) -> None:
        """Close the idle connections; later calls no longer pool theirs."""
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            _close_connection(conn)

    # -- connection pool ------------------------------------------------
    def _exchange(self, data: bytes) -> bytes:
        """Send one request line; returns the answer line (may be torn).

        A reused connection that hits EOF or a reset before a full line
        arrives is replaced by one fresh connection; a timeout is not.
        """
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                line = self._roundtrip(conn, data)
            except ConnectionError:
                line = b""
            if line.endswith(b"\n"):
                return line
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._roundtrip((sock, sock.makefile("rb")), data)

    def _roundtrip(self, conn: Tuple[socket.socket, BinaryIO], data: bytes) -> bytes:
        """One request/answer on ``conn``; pools it again only after a full
        answer line, and closes it on anything else."""
        line = b""
        try:
            conn[0].sendall(data)
            line = conn[1].readline(MAX_LINE_BYTES)
        finally:
            if line.endswith(b"\n"):
                self._release(conn)
            else:
                _close_connection(conn)
        return line

    def _release(self, conn: Tuple[socket.socket, BinaryIO]) -> None:
        with self._idle_lock:
            if not self._closed and len(self._idle) < self.MAX_IDLE:
                self._idle.append(conn)
                return
        _close_connection(conn)

    # -- typed helpers --------------------------------------------------
    def ping(self) -> bool:
        try:
            return bool(self.call({"op": "ping"}).get("pong", False))
        except (ShardUnavailable, ShardError):
            # Unreachable or misbehaving both read as "not healthy"; the
            # fleet's probe loop counts consecutive failures before acting.
            return False

    def get(self, key: str) -> Optional[dict]:
        response = self.call({"op": "get", "key": key})
        if not response.get("hit"):
            return None
        payload = response.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> None:
        self.call({"op": "put", "key": key, "payload": payload})

    def stats(self) -> Dict[str, object]:
        stats = self.call({"op": "stats"}).get("stats", {})
        return stats if isinstance(stats, dict) else {}


def _close_connection(conn: Tuple[socket.socket, BinaryIO]) -> None:
    sock, reader = conn
    reader.close()
    sock.close()


# ----------------------------------------------------------------------
# Worker-process entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description="One plan-cache shard worker: journaled store behind a "
        "loopback JSON RPC port (spawned by repro-serve --workers N).",
    )
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument(
        "--data-dir", required=True, help="journal + base directory for this shard"
    )
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--maxsize", type=int, default=4096)
    parser.add_argument("--ttl", type=float, default=None)
    parser.add_argument(
        "--journal-max-bytes",
        type=int,
        default=1 << 20,
        help="journal segment size that triggers compaction",
    )
    args = parser.parse_args(argv)

    store = ShardStore(
        args.data_dir,
        maxsize=args.maxsize,
        ttl=args.ttl,
        max_segment_bytes=args.journal_max_bytes,
    )
    recovered = recover_or_cold(store, f"shard {args.shard_id}")
    server = ShardServer(store, args.shard_id, port=args.port)

    def _shutdown(signum: int, frame: Any) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _shutdown)

    print(
        f"repro-shard {args.shard_id} listening on "
        f"{LOOPBACK}:{server.port} pid={os.getpid()} recovered={recovered}",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
