"""``repro-serve`` — stdlib JSON/HTTP front end for the planner service.

Endpoints:

* ``POST /plan``      — compute or fetch a reservation plan (plan cache);
* ``POST /evaluate``  — Monte-Carlo re-evaluation of a plan's reservations;
* ``GET  /healthz``   — liveness + backend/cache summary (never throttled);
* ``GET  /metrics``   — the full metrics registry + cache stats as JSON.

Admission control: at most ``max_inflight`` POST requests execute
concurrently; excess requests are answered immediately with ``429 Too Many
Requests`` and a ``Retry-After`` hint instead of queueing unboundedly —
under overload a planner that sheds load stays responsive for the requests
it does admit.  ``/healthz`` and ``/metrics`` bypass admission so operators
can always observe an overloaded server.

Persistence: without ``--shard-dir`` the plan cache is the in-memory
:class:`~repro.service.plancache.PlanCache`.  ``--shard-dir D`` makes it
the journaled :class:`~repro.service.shard.ShardStore` at ``D/shard-0``
(the layout a one-shard fleet uses), recovered before the banner; with
``--workers N`` each shard worker journals its slice under ``D/shard-K``.
Either way every cached plan is fsync'd to its journal when it is put, so
a restart on the same directory — clean or not — serves it again.

Graceful shutdown: SIGINT/SIGTERM stop the accept loop, the listening
socket closes (new connections are refused), and in-flight requests are
*drained* — an explicit condition-variable barrier, since the handler
threads are daemons and would otherwise be abandoned mid-response.

Resilience: every admitted POST passes the ``server.request``
fault-injection site.  A ``REPRO_FAULTS`` plan is parsed at boot, before
the port is bound: a malformed plan exits with status 2 instead of failing
every request at its first fault site.  A ``--seed`` or ``--n-samples``
that the planner would refuse in a request exits 2 the same way, as does
a negative ``--workers`` or any ``--cache-size``, ``--ttl``,
``--shard-journal-bytes`` or ``--max-inflight`` the cache, the journal or
the HTTP server refuses.
The port is bound before any shard worker is spawned, and a boot that
fails after the spawn stops the fleet before it exits.  The
breaker / deadline knobs feed the planner's
:class:`~repro.service.planner.ResilienceOptions`.  See
``docs/RESILIENCE.md``.

Protocol: the handler parses and answers HTTP/1.1 itself on
``socketserver`` (stdlib only).  ``http.server``'s header parser and
response writer each cost more CPU per warm ``/plan`` hit than the plan
lookup does.
HTTP/1.1 connections stay open unless the client sends ``Connection:
close``; HTTP/1.0 ones close unless it sends ``Connection: keep-alive``.
``Expect: 100-continue`` is answered with ``100 Continue`` just before
the body is read.  A reply sent with the body still unread (404, 429,
413, an injected 500, a chunked body) closes the connection.  Protocol
errors are answered as JSON ``{"error": ...}`` and close it too: a bad
request line is a 400, an over-long line a 414 (request line) or 431
(header line), more than 100 headers a 431, a method other than
GET/POST a 501.  Every response is one write carrying
``Content-Type: application/json``, ``Content-Length`` and ``Date``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, Tuple

from repro import observability as obs
from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.service.plancache import PlanCache
from repro.service.planner import (
    PlannerService,
    ResilienceOptions,
    ServiceError,
    _parse_evaluation,
)
from repro.service.pool import get_backend
from repro.service.router import ShardFleet
from repro.service.shard import ShardStore, recover_or_cold

__all__ = ["PlanServer", "serve", "main"]

MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request-line / header-line and header-count limits (``http.server``'s).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}" for s in HTTPStatus}


class PlanServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP/1.1 server with a bounded in-flight request budget."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: PlannerService,
        max_inflight: int = 8,
    ):
        if max_inflight < 0:  # before the bind, so no listener leaks
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        super().__init__(address, _Handler)
        self.service = service
        self.max_inflight = max_inflight
        self._admission = threading.Semaphore(max_inflight)
        # In-flight request barrier for graceful shutdown: handler threads
        # are daemons, so server_close() does not join them — drain() is
        # how main() waits for admitted requests to finish responding.
        self._drain_cv = threading.Condition()
        self._inflight = 0

    def try_admit(self) -> bool:
        admitted = self._admission.acquire(blocking=False)
        if admitted:
            with self._drain_cv:
                self._inflight += 1
        return admitted

    def release(self) -> None:
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()
        self._admission.release()

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every admitted request has finished (or timeout)."""
        limit = time.monotonic() + timeout
        with self._drain_cv:
            while self._inflight > 0:
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    return False
                self._drain_cv.wait(remaining)
            return True

    @property
    def port(self) -> int:
        return self.server_address[1]


class _ProtocolError(Exception):
    """A request the server cannot parse; answered, then the connection closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(socketserver.StreamRequestHandler):
    """One connection: parse and answer HTTP/1.1 requests until it closes."""

    server: PlanServer  # narrowed for attribute access below

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except OSError:
            pass  # peer vanished mid-exchange; nothing left to answer

    def _handle_one(self) -> bool:
        """Answer one request; returns whether the connection stays open."""
        self._body_read = False
        self._close = True  # until the request line and headers parse
        self._headers: Dict[str, str] = {}
        try:
            request_line = self._read_line(414, "request line too long")
            if not request_line.strip():
                return False  # EOF, or a stray blank line: close quietly
            method, self.path, self._http11 = self._parse_request_line(
                request_line
            )
            self._read_headers()
        except _ProtocolError as exc:
            self._error(exc.status, str(exc))
            return False
        # HTTP/1.1 keeps the connection unless told otherwise; HTTP/1.0
        # closes it unless asked to keep it.
        connection = self._headers.get("connection", "").lower()
        self._close = connection == "close" or (
            not self._http11 and connection != "keep-alive"
        )
        if method == "GET":
            self._do_get()
        elif method == "POST":
            self._do_post()
        else:
            self._close = True
            self._error(501, f"unsupported method {method!r}")
        return not (self._close or self._body_pending())

    # -- parsing -------------------------------------------------------
    def _read_line(self, status: int, message: str) -> bytes:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _ProtocolError(status, message)
        return line

    @staticmethod
    def _parse_request_line(line: bytes) -> Tuple[str, str, bool]:
        """``(method, path, is_http11)`` of a request line."""
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise _ProtocolError(400, f"bad request line {line[:80]!r}")
        method, path, version = words
        return method, path, version == "HTTP/1.1"

    def _read_headers(self) -> None:
        """Header names lower-cased; the first of a repeated header wins."""
        for _ in range(MAX_HEADERS + 1):
            line = self._read_line(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                return
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name != name.strip():
                raise _ProtocolError(400, f"bad header line {line[:80]!r}")
            self._headers.setdefault(name.lower(), value.strip())
        raise _ProtocolError(431, f"more than {MAX_HEADERS} headers")

    def _body_pending(self) -> bool:
        """Whether the request's body is still unread in the stream."""
        if self._body_read:
            return False
        headers = self._headers
        return (
            headers.get("content-length", "0") != "0"
            or "transfer-encoding" in headers
        )

    def _read_body(self) -> dict:
        if "transfer-encoding" in self._headers:
            raise ServiceError("chunked request bodies are not supported")
        try:
            length = int(self._headers.get("content-length", "0"))
        except ValueError:
            raise ServiceError("bad Content-Length header") from None
        if length <= 0:
            raise ServiceError("request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        expect = self._headers.get("expect", "").lower()
        if self._http11 and expect == "100-continue":
            # The client holds the body back until told to send it.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    # -- writing -------------------------------------------------------
    def _send_json(self, status: int, payload: dict, extra_headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            _STATUS_LINES[status],
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Date: {formatdate(usegmt=True)}",
        ]
        if self._close or self._body_pending():
            # A reply sent before the body was read (404, 429, 413, an
            # injected 500) closes too: on a kept-alive connection the
            # body would be parsed as the next request line.
            lines.append("Connection: close")
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        # The whole message in one write: a header block sent on its own
        # would leave the body waiting on Nagle's algorithm for the
        # client's delayed ACK (~40 ms per response on a kept-alive
        # connection).
        self.wfile.write(head + body)

    def _error(self, status: int, message: str, extra_headers=()) -> None:
        metrics.inc(f"{names.SERVER_RESPONSES_PREFIX}{status}")
        self._send_json(status, {"error": message}, extra_headers)

    # -- routes --------------------------------------------------------
    def _do_get(self) -> None:
        metrics.inc(names.SERVER_REQUESTS)
        if self.path == "/healthz":
            self._send_json(200, self.server.service.health())
        elif self.path == "/metrics":
            self._send_json(200, self.server.service.metrics_payload())
        else:
            self._error(404, f"unknown endpoint {self.path!r}")

    def _do_post(self) -> None:
        metrics.inc(names.SERVER_REQUESTS)
        if self.path not in ("/plan", "/evaluate"):
            self._error(404, f"unknown endpoint {self.path!r}")
            return
        if not self.server.try_admit():
            metrics.inc(names.SERVER_THROTTLED)
            self._error(
                429,
                f"server at capacity ({self.server.max_inflight} in-flight)",
                extra_headers=[("Retry-After", "1")],
            )
            return
        try:
            # Chaos drills can delay, hang, or fail admitted requests here
            # (an injected error surfaces as a well-formed 500 below).
            faults.fire("server.request")
            body = self._read_body()
            if self.path == "/plan":
                self._send_json(200, self.server.service.plan(body))
            else:
                self._send_json(200, self.server.service.evaluate(body))
            metrics.inc(names.SERVER_RESPONSES_OK)
        except ServiceError as exc:
            self._error(exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 - service must not die per-request
            metrics.inc(names.SERVER_ERRORS)
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            self.server.release()


def serve(
    service: PlannerService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: int = 8,
) -> PlanServer:
    """Bind a :class:`PlanServer` (``port=0`` picks an ephemeral port).

    The caller owns the accept loop: run ``server.serve_forever()`` inline or
    in a thread, and ``server.shutdown()`` to stop.
    """
    return PlanServer((host, port), service, max_inflight=max_inflight)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve reservation plans over JSON/HTTP with a plan "
        "cache and a parallel execution backend.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, help="plan cache capacity"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard the plan cache across N supervised worker processes "
        "(0 = in-process cache); each shard persists its slice in a "
        "crash-safe append-only journal under --shard-dir",
    )
    parser.add_argument(
        "--shard-dir",
        metavar="DIR",
        default=None,
        help="root directory for per-shard journals; each worker owns "
        "DIR/shard-K (default with --workers N: ./repro-shards). With "
        "--workers 0 the in-process cache is journaled at DIR/shard-0 and "
        "recovered on boot; omit it for a memory-only cache",
    )
    parser.add_argument(
        "--shard-journal-bytes",
        type=int,
        default=1 << 20,
        help="journal segment size that triggers shard compaction",
    )
    parser.add_argument(
        "--ttl", type=float, default=None, help="plan cache TTL in seconds"
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="thread",
        help="execution backend for Monte-Carlo evaluation (default: thread, "
        "which evaluates serially unless --jobs >= 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="pool size for --backend thread/process: 0 or 1 evaluates "
        "Monte-Carlo serially, N >= 2 starts a pool of N workers",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="admitted concurrent POST requests; beyond this, 429",
    )
    parser.add_argument(
        "--n-samples",
        type=int,
        default=5000,
        help="default Monte-Carlo samples per plan/evaluate request",
    )
    parser.add_argument("--seed", type=int, default=0, help="default RNG seed")
    parser.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per plan/evaluate computation (default: none)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive MC-backend failures before the breaker opens",
    )
    parser.add_argument(
        "--breaker-recovery",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds the breaker stays open before half-opening a probe",
    )
    parser.add_argument(
        "--mc-task-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-attempt timeout for one parallel Monte-Carlo chunk",
    )
    parser.add_argument(
        "--mc-task-retries",
        type=int,
        default=2,
        help="resubmissions per failed/hung Monte-Carlo chunk",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max seconds to wait for in-flight requests on shutdown",
    )
    args = parser.parse_args(argv)

    try:
        plan = faults.get_plan()
    except (ValueError, OSError) as exc:
        print(f"repro-serve: bad {faults.ENV_VAR}: {exc}", file=sys.stderr)
        return 2
    try:
        _parse_evaluation({}, args.n_samples, args.seed)
    except ServiceError as exc:
        print(f"repro-serve: bad --n-samples/--seed: {exc}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(
            f"repro-serve: --workers must be >= 0, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    store = fleet = None
    try:
        # Each component refuses a bad flag before it creates anything.
        # With --workers, ``cache`` is the planner's only until the fleet
        # is up: it is spawned once the port is bound.
        cache = PlanCache(maxsize=args.cache_size, ttl=args.ttl)
        if args.workers:
            fleet = ShardFleet(
                n_shards=args.workers,
                data_dir=args.shard_dir or "repro-shards",
                maxsize_per_shard=args.cache_size,
                ttl=args.ttl,
                journal_max_bytes=args.shard_journal_bytes,
            )
        elif args.shard_dir:
            store = cache = ShardStore(
                os.path.join(args.shard_dir, "shard-0"),
                maxsize=args.cache_size,
                ttl=args.ttl,
                max_segment_bytes=args.shard_journal_bytes,
            )
    except ValueError as exc:
        print(
            f"repro-serve: bad --cache-size/--ttl/--shard-journal-bytes: {exc}",
            file=sys.stderr,
        )
        return 2
    if plan is not None:
        print(f"Fault plan installed: {plan!r}", file=sys.stderr)
    obs.enable()
    if store is not None:
        recovered = recover_or_cold(store, "plan store")
        print(
            f"Plan store: {store.journal.directory} recovered={recovered}",
            flush=True,
        )
    service = PlannerService(
        cache=cache,
        backend=get_backend(args.backend, args.jobs),
        n_samples=args.n_samples,
        seed=args.seed,
        resilience=ResilienceOptions(
            request_deadline_s=args.request_deadline,
            mc_task_timeout_s=args.mc_task_timeout,
            mc_task_retries=args.mc_task_retries,
            breaker_failure_threshold=args.breaker_threshold,
            breaker_recovery_s=args.breaker_recovery,
        ),
    )
    try:
        server = serve(
            service, host=args.host, port=args.port, max_inflight=args.max_inflight
        )
    except ValueError as exc:  # refused before the bind
        failure, status = f"bad --max-inflight: {exc}", 2
    except OSError as exc:
        failure, status = f"cannot bind {args.host}:{args.port}: {exc}", 1
    else:
        failure = None
    if failure is not None:
        print(f"repro-serve: {failure}", file=sys.stderr)
        if store is not None:
            store.close()
        return status
    try:
        if fleet is not None:
            service.cache = fleet.start()
            print(
                f"Shard fleet up: {args.workers} worker(s), pids="
                f"{sorted(fleet.pids().values())}, data={fleet.data_dir}",
                file=sys.stderr,
            )

        def _shutdown(signum, frame):
            threading.Thread(target=server.shutdown, daemon=True).start()

        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, _shutdown)

        host = server.server_address[0]
        print(
            f"repro-serve listening on http://{host}:{server.port} "
            f"(backend={service.backend.kind}, cache={service.cache.maxsize}, "
            f"workers={args.workers}, max_inflight={args.max_inflight})",
            flush=True,
        )
        server.serve_forever(poll_interval=0.2)
    finally:
        # Ordered shutdown: close the socket first (new connections are
        # refused), then drain admitted requests, then release the cache
        # tier.  Nothing is persisted here: every plan was journaled when
        # it was put.  A boot that failed before serving takes the same
        # path, so no shard worker outlives it.
        server.server_close()
        if not server.drain(timeout=args.drain_timeout):
            print(
                f"Drain timed out after {args.drain_timeout}s", file=sys.stderr
            )
        if store is not None:
            store.close()
        if fleet is not None:
            # After the drain: in-flight requests may still be talking to
            # shards right up to their last byte of response.
            fleet.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
