"""``repro-serve`` — stdlib JSON/HTTP front end for the planner service.

Endpoints:

* ``POST /plan``      — compute or fetch a reservation plan (plan cache);
* ``POST /evaluate``  — Monte-Carlo re-evaluation of a plan's reservations;
* ``GET  /healthz``   — liveness + backend/cache summary (never throttled);
* ``GET  /metrics``   — the full metrics registry + cache stats as JSON.

Threading model: one stdlib ``selectors`` selector holds the listening
socket and every open connection, and a fixed pool of ``max_inflight + 1``
threads takes turns leading it (leader/followers).  The leader accepts
connections and reads each request in full.  It answers on the spot what
needs no computing: an error, ``/healthz`` and ``/metrics`` on the
in-process cache, and a ``/plan`` whose key is already in the in-process
cache, so a warm hit never passes between threads.  A request that must
compute (a plan miss, any ``/evaluate``, anything on the sharded tier,
every POST while a fault plan is installed) runs on the thread that read
it, which first hands the selector to an idle follower; its connection
goes back to the selector when the answer is written.  An idle connection
holds a file descriptor, not a thread.

Admission control: a POST is read in full, head and body (at most
``MAX_BODY_BYTES``), before it is admitted.  At most ``max_inflight``
admitted POSTs run at once; the next gets ``429 Too Many Requests`` with a
``Retry-After`` hint at once, instead of queueing unboundedly, and its
connection closes.  A client that stalls mid-request therefore holds no
admission slot: a request not received in full within ``READ_DEADLINE_S``
of its first byte is answered ``408`` and its connection closes, and a
kept-alive connection that sends nothing for ``IDLE_LIMIT_S`` is closed.
``/healthz`` and ``/metrics`` bypass admission so operators can always
observe an overloaded server.

Persistence: without ``--shard-dir`` the plan cache is the in-memory
:class:`~repro.service.plancache.PlanCache`.  ``--shard-dir D`` makes it
the journaled :class:`~repro.service.shard.ShardStore` at ``D/shard-0``
(the layout a one-shard fleet uses), recovered before the banner; with
``--workers N`` each shard worker journals its slice under ``D/shard-K``.
Either way every cached plan is fsync'd to its journal when it is put, so
a restart on the same directory — clean or not — serves it again.

Graceful shutdown: SIGINT/SIGTERM stop the pool from leading the
selector, the listening socket and the idle connections close (new
connections are refused), and in-flight requests are *drained* — an
explicit condition-variable barrier, since the pool threads are daemons
and would otherwise be abandoned mid-response.

Resilience: every admitted POST that computes passes the
``server.request`` fault-injection site, on the pool thread that computes
it, never on the thread leading the selector; while a fault plan is
installed no POST is answered on the spot.  A ``REPRO_FAULTS`` plan is
parsed at boot, before the port is bound: a malformed plan exits with
status 2 instead of failing every request at its first fault site.  A
``--seed`` or ``--n-samples`` that the planner would refuse in a request
exits 2 the same way, as does a negative ``--workers`` or any
``--cache-size``, ``--ttl``, ``--shard-journal-bytes`` or
``--max-inflight`` the cache, the journal or the HTTP server refuses.
The port is bound before any shard worker is spawned, and a boot that
fails after the spawn stops the fleet before it exits.  The
breaker / deadline knobs feed the planner's
:class:`~repro.service.planner.ResilienceOptions`.  See
``docs/RESILIENCE.md``.

Protocol: the handler parses and answers HTTP/1.1 itself (stdlib only).
``http.server``'s header parser and response writer each cost more CPU
per warm ``/plan`` hit than the plan lookup does.
HTTP/1.1 connections stay open unless the client sends ``Connection:
close``; HTTP/1.0 ones close unless it sends ``Connection: keep-alive``.
``Expect: 100-continue`` is answered with ``100 Continue`` once the head
is accepted, just before the body is read.  A reply sent with the body
still unread (404, 413, a chunked body) closes the connection, and so
does a 429.  Protocol errors are answered as JSON ``{"error": ...}`` and
close it too: a bad request line is a 400, an over-long line a 414
(request line) or 431 (header line), more than 100 headers a 431, a
method other than GET/POST a 501.  Every response is one write carrying
``Content-Type: application/json``, ``Content-Length`` and ``Date``; the
part the socket does not take at once waits for it to be writable.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import selectors
import signal
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

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
#: Seconds a request may take to arrive in full, from its first byte to
#: the last byte of its body; a slower one is answered 408 and its
#: connection closes.  A reply the client leaves unread as long is dropped.
READ_DEADLINE_S = 10.0
#: Seconds a kept-alive connection may wait for its next request.
IDLE_LIMIT_S = 30.0

_RECV_BYTES = 65536
#: The request fields a plan key is a function of (see ``plan_key``).
_KEYED_FIELDS = ("distribution", "cost_model", "strategy", "coverage")
#: Bound on the remembered ``_keyed_fields(body) -> plan key`` pairs.
_MAX_REMEMBERED_KEYS = 4096

_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}" for s in HTTPStatus}


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value for ``second``: formatted once a second."""
    return formatdate(second, usegmt=True)


def _keyed_fields(body: dict) -> str:
    """The fields of ``body`` its plan key depends on, as one string.

    Equal strings mean equal JSON values, hence equal plan keys, so a
    request whose string maps to a cached key is a warm hit.
    """
    return repr([body.get(name) for name in _KEYED_FIELDS])


class PlanServer(socketserver.TCPServer):
    """HTTP/1.1 server: one selector led by a pool of ``max_inflight + 1``
    threads, with a bounded in-flight request budget."""

    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: PlannerService,
        max_inflight: int = 8,
    ):
        if max_inflight < 0:  # before the bind, so no listener leaks
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        # Made before the bind: a failed bind calls server_close().
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._returned: collections.deque = collections.deque()
        super().__init__(address, _Handler)
        self.service = service
        self.max_inflight = max_inflight
        # Admitted requests in flight: the admission bound, and the barrier
        # drain() waits on (pool threads are daemons, so server_close()
        # does not join them).
        self._admit_lock = threading.Lock()
        self._drained = threading.Condition(self._admit_lock)
        self._inflight = 0
        # Plan key by the keyed fields of a request already answered 200:
        # how the leader tells a warm /plan hit without planning anything.
        self._keys: Dict[str, str] = {}
        for sock in (self.socket, self._wake_r, self._wake_w):
            sock.setblocking(False)
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        # The leader holds _lead and alone touches the selector, _ready
        # and _next_sweep; pool threads hand answered connections back
        # through _returned.
        self._lead = threading.Lock()
        self._ready: list = []
        self._next_sweep = 0.0
        self._stop = threading.Event()
        self._stopped = threading.Event()

    def try_admit(self) -> bool:
        with self._admit_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._admit_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every admitted request has finished (or timeout)."""
        limit = time.monotonic() + timeout
        with self._drained:
            while self._inflight > 0:
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    return False
                self._drained.wait(remaining)
            return True

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- the pool ------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the pool until :meth:`shutdown`.

        ``poll_interval`` bounds the leader's wait in the selector, so read
        deadlines and idle limits are checked at least that often.
        """
        for i in range(self.max_inflight + 1):
            threading.Thread(
                target=self._follow,
                args=(poll_interval,),
                name=f"repro-serve-{i}",
                daemon=True,
            ).start()
        try:
            self._stop.wait()
        finally:
            self._stop.set()
            self._wake()
            with self._lead:  # the last leader has left the selector
                pass
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop leading the selector; call it from another thread than
        :meth:`serve_forever`, which returns once no thread leads."""
        self._stop.set()
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listener and every connection waiting in the selector.

        A connection a pool thread is answering is closed by that thread
        once its reply is written.
        """
        super().server_close()
        for key in list((self._selector.get_map() or {}).values()):
            if key.data is not None:
                key.data.close()
        while self._returned:
            self._returned.popleft().close()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def _follow(self, poll_interval: float) -> None:
        """One pool thread: lead the selector (or wait to), then run the
        request it hands over."""
        while True:
            handler, job = self._lead_selector(poll_interval)
            if job is None:
                return
            handler.run(job)
            if self._stop.is_set() or (handler.closing and not handler.outbuf):
                handler.close()
            else:
                self._returned.append(handler)
                self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a wake-up is already pending, or the server is closed

    def _lead_selector(
        self, poll_interval: float
    ) -> Tuple[Optional["_Handler"], Optional[Callable]]:
        """Wait to lead, then serve the selector until a request must run
        off it.

        Returns ``(handler, job)`` for that request, or ``(None, None)``
        once the server stops.  Events the next leader has to handle stay
        in ``_ready``.
        """
        with self._lead:
            while not self._stop.is_set():
                if not self._ready:
                    now = time.monotonic()
                    if now >= self._next_sweep:
                        self._sweep(now)
                        self._next_sweep = now + poll_interval
                    self._ready = self._selector.select(poll_interval)
                    continue
                key, mask = self._ready.pop()
                handler = key.data
                if handler is None:
                    if key.fileobj is self.socket:
                        self._accept()
                    else:
                        self._take_back()
                    continue
                if mask & selectors.EVENT_WRITE and not handler.flush():
                    continue  # the socket took part of the reply; wait again
                if mask & selectors.EVENT_READ and not handler.receive():
                    self._drop(handler)  # the peer closed or reset
                    continue
                job = handler.on_input()
                if job is not None:
                    self._selector.unregister(handler.sock)
                    handler.events = 0
                    return handler, job
                self._arm(handler)
            return None, None

    def _accept(self) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:
            return  # the client gave up before it was accepted
        sock.setblocking(False)
        handler = _Handler(sock, self)
        key = self._selector.register(sock, selectors.EVENT_READ, handler)
        handler.events = selectors.EVENT_READ
        # A client sends its request right after connecting: read now
        # rather than after one more wait in the selector.
        self._ready.append((key, selectors.EVENT_READ))

    def _take_back(self) -> None:
        """Arm the connections pool threads have answered."""
        try:
            self._wake_r.recv(4096)
        except OSError:
            pass  # nothing pending: a wake-up raced the last one
        while self._returned:
            self._arm(self._returned.popleft())

    def _arm(self, handler: "_Handler") -> None:
        """Wait on what ``handler`` needs next: writability while a reply
        is pending, else its next request; or close it."""
        if handler.outbuf:
            events = selectors.EVENT_WRITE
        elif handler.closing:
            self._drop(handler)
            return
        else:
            events = selectors.EVENT_READ
        if handler.events == events:
            return
        if handler.events:
            self._selector.modify(handler.sock, events, handler)
        else:
            self._selector.register(handler.sock, events, handler)
        handler.events = events

    def _drop(self, handler: "_Handler") -> None:
        if handler.events:
            self._selector.unregister(handler.sock)
            handler.events = 0
        handler.close()

    def _sweep(self, now: float) -> None:
        """Close connections past their read deadline or idle limit."""
        for key in list(self._selector.get_map().values()):
            if key.data is not None and key.data.expired(now):
                self._drop(key.data)

    # -- what the leader answers itself --------------------------------
    def answers_gets_inline(self) -> bool:
        """``/healthz`` and ``/metrics`` on the in-process cache never
        block; on the sharded tier they cost one RPC per shard."""
        return isinstance(self.service.cache, PlanCache)

    def is_warm_plan(self, path: str, body: dict) -> bool:
        """Whether ``body`` is a ``/plan`` whose key the in-process cache
        holds: its answer is a lookup.  Counts nothing, moves no LRU entry.
        """
        cache = self.service.cache
        if (
            path != "/plan"
            or not isinstance(cache, PlanCache)
            or faults.get_plan() is not None
        ):
            return False
        key = self._keys.get(_keyed_fields(body))
        return key is not None and key in cache

    def remember(self, body: dict, key: str) -> None:
        keys = self._keys
        if len(keys) >= _MAX_REMEMBERED_KEYS:
            keys.clear()  # relearned from the next answers
        keys[_keyed_fields(body)] = key


class _ProtocolError(Exception):
    """A request the server cannot parse; answered, then the connection closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler:
    """One connection: its buffered input, the HTTP/1.1 parser and writer.

    The thread leading the selector feeds it bytes (:meth:`receive`) and
    calls :meth:`on_input`, which answers what it can and returns, as a
    callable, the first request that must run off the selector.  While a
    pool thread runs that request (:meth:`run`) the connection is out of
    the selector, so one thread at a time touches a handler.
    """

    def __init__(self, sock: socket.socket, server: PlanServer):
        self.sock = sock
        self.server = server
        self.inbuf = bytearray()
        #: Reply bytes the socket has not taken yet.
        self.outbuf = b""
        #: Close once ``outbuf`` is sent.
        self.closing = False
        #: Selector events this connection is registered for (0: none).
        self.events = 0
        #: Start of the current request, pending reply or idle spell.
        self.since = time.monotonic()
        #: On a pool thread a partial write blocks (bounded) instead.
        self._blocking_writes = False
        self._next_request()

    def _next_request(self) -> None:
        self._method: Optional[str] = None
        self.path = ""
        self._http11 = False
        self._headers: Dict[str, str] = {}
        self._header_lines = 0
        self._pos = 0  # parse offset into inbuf
        self._head_end = 0  # inbuf offset of the body; 0 until the head parses
        self._length: Optional[int] = None  # body length, once checked
        self._body_read = False
        self._close = True  # until the request line and headers parse

    # -- selector side -------------------------------------------------
    def receive(self) -> bool:
        """Buffer what the socket holds; False once the peer has closed."""
        try:
            data = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not data:
            return False
        if not self.inbuf:
            self.since = time.monotonic()
        self.inbuf += data
        return True

    def flush(self) -> bool:
        """Send more of ``outbuf``; whether it is empty now."""
        try:
            sent = self.sock.send(self.outbuf)
        except BlockingIOError:
            return False
        except OSError:
            self._lost()
            return True
        self.outbuf = self.outbuf[sent:]
        return not self.outbuf

    def expired(self, now: float) -> bool:
        """Whether the connection is past its deadline; a request still
        arriving is answered 408 first."""
        age = now - self.since
        if self.outbuf:
            return age > READ_DEADLINE_S
        if not self.inbuf:
            return age > IDLE_LIMIT_S
        if age <= READ_DEADLINE_S:
            return False
        self._close = True
        self._error(408, f"request not received within {READ_DEADLINE_S:g} s")
        return True

    def close(self) -> None:
        self.sock.close()

    def on_input(self) -> Optional[Callable[[], None]]:
        """Answer the buffered requests in order; returns the first one
        that must run off the selector, or None once the next needs more
        input (or a pending reply must go out first)."""
        while not (self.closing or self.outbuf):
            if not self._head_end:
                try:
                    if not self._read_head():
                        return None
                except _ProtocolError as exc:
                    self._error(exc.status, str(exc))
                    self.closing = True
                    return None
            job = self._route()
            if job is not None or self._head_end:
                return job  # a job, or a body still arriving
        return None

    def run(self, job: Optional[Callable[[], None]]) -> None:
        """Run ``job`` and the requests buffered behind it on this pool
        thread, where a partial write may block."""
        self._blocking_writes = True
        try:
            while job is not None:
                job()
                job = self.on_input()
        finally:
            self._blocking_writes = False

    # -- parsing -------------------------------------------------------
    def _read_line(self, status: int, message: str) -> Optional[bytes]:
        """The next complete buffered line, or None until it has arrived."""
        start = self._pos
        end = self.inbuf.find(b"\n", start, start + MAX_LINE_BYTES)
        if end < 0:
            if len(self.inbuf) - start >= MAX_LINE_BYTES:
                raise _ProtocolError(status, message)
            return None
        self._pos = end + 1
        return bytes(self.inbuf[start : end + 1])

    @staticmethod
    def _parse_request_line(line: bytes) -> Tuple[str, str, bool]:
        """``(method, path, is_http11)`` of a request line."""
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise _ProtocolError(400, f"bad request line {line[:80]!r}")
        method, path, version = words
        return method, path, version == "HTTP/1.1"

    def _read_head(self) -> bool:
        """Parse the buffered head; whether all of it has arrived.

        Header names are lower-cased; the first of a repeated header wins.
        """
        if self._method is None:
            line = self._read_line(414, "request line too long")
            if line is None:
                return False
            if not line.strip():
                self.closing = True  # a stray blank line: close quietly
                return False
            self._method, self.path, self._http11 = self._parse_request_line(
                line
            )
        while True:
            line = self._read_line(431, "header line too long")
            if line is None:
                return False
            if line in (b"\r\n", b"\n"):
                break
            if self._header_lines == MAX_HEADERS:
                raise _ProtocolError(431, f"more than {MAX_HEADERS} headers")
            self._header_lines += 1
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name != name.strip():
                raise _ProtocolError(400, f"bad header line {line[:80]!r}")
            self._headers.setdefault(name.lower(), value.strip())
        self._head_end = self._pos
        # HTTP/1.1 keeps the connection unless told otherwise; HTTP/1.0
        # closes it unless asked to keep it.
        connection = self._headers.get("connection", "").lower()
        self._close = connection == "close" or (
            not self._http11 and connection != "keep-alive"
        )
        return True

    def _body_pending(self) -> bool:
        """Whether the request's body is still unread in the stream."""
        if self._body_read:
            return False
        headers = self._headers
        return (
            headers.get("content-length", "0") != "0"
            or "transfer-encoding" in headers
        )

    def _body_length(self) -> int:
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
        return length

    @staticmethod
    def _parse_body(raw: bytearray) -> dict:
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
            raise ServiceError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _finish(self) -> None:
        """Done with the current request: drop its bytes, await the next."""
        if self._close or self._body_pending():
            self.closing = True
        else:
            del self.inbuf[: self._head_end + (self._length or 0)]
        self._next_request()
        self.since = time.monotonic()

    # -- writing -------------------------------------------------------
    def _write(self, data: bytes) -> None:
        """Send ``data``.  What the socket does not take at once waits in
        ``outbuf`` for the selector; on a pool thread it is sent blocking,
        for at most ``READ_DEADLINE_S``."""
        if self.outbuf:  # keep replies in order
            self.outbuf += data
            return
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._lost()
            return
        if sent == len(data):
            return
        if not self._blocking_writes:
            self.outbuf = data[sent:]
            self.since = time.monotonic()
            return
        try:
            self.sock.settimeout(READ_DEADLINE_S)
            self.sock.sendall(data[sent:])
            self.sock.setblocking(False)
        except OSError:
            self._lost()

    def _lost(self) -> None:
        """The peer vanished mid-exchange; nothing left to answer."""
        self.outbuf = b""
        self.closing = True

    def _send_json(self, status: int, payload: dict, extra_headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            _STATUS_LINES[status],
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Date: {_http_date(int(time.time()))}",
        ]
        if self._close or self._body_pending():
            # A reply sent before the body was read (404, 413) closes too:
            # on a kept-alive connection the body would be parsed as the
            # next request line.
            lines.append("Connection: close")
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        # The whole message in one write: a header block sent on its own
        # would leave the body waiting on Nagle's algorithm for the
        # client's delayed ACK (~40 ms per response on a kept-alive
        # connection).
        self._write(head + body)

    def _error(self, status: int, message: str, extra_headers=()) -> None:
        metrics.inc(f"{names.SERVER_RESPONSES_PREFIX}{status}")
        self._send_json(status, {"error": message}, extra_headers)

    def _reply_error(self, status: int, message: str, extra_headers=()) -> None:
        self._error(status, message, extra_headers)
        self._finish()

    # -- routes --------------------------------------------------------
    def _route(self) -> Optional[Callable[[], None]]:
        if self._method == "GET":
            if self.server.answers_gets_inline():
                self._answer_get()
                return None
            return self._answer_get
        if self._method == "POST":
            return self._route_post()
        self._close = True
        self._reply_error(501, f"unsupported method {self._method!r}")
        return None

    def _answer_get(self) -> None:
        metrics.inc(names.SERVER_REQUESTS)
        service = self.server.service
        try:
            if self.path == "/healthz":
                self._send_json(200, service.health())
            elif self.path == "/metrics":
                self._send_json(200, service.metrics_payload())
            else:
                self._error(404, f"unknown endpoint {self.path!r}")
        except Exception as exc:  # noqa: BLE001 - a pool thread must not die per-request
            metrics.inc(names.SERVER_ERRORS)
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        self._finish()

    def _route_post(self) -> Optional[Callable[[], None]]:
        """Read the body in full, then admit: a request that is still
        arriving holds no admission slot."""
        if self._length is None:
            metrics.inc(names.SERVER_REQUESTS)
            if self.path not in ("/plan", "/evaluate"):
                self._reply_error(404, f"unknown endpoint {self.path!r}")
                return None
            try:
                self._length = self._body_length()
            except ServiceError as exc:
                self._reply_error(exc.status, str(exc))
                return None
            expect = self._headers.get("expect", "").lower()
            if self._http11 and expect == "100-continue":
                # The client holds the body back until told to send it.
                self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
        end = self._head_end + self._length
        if len(self.inbuf) < end:
            return None
        self._body_read = True
        try:
            body = self._parse_body(self.inbuf[self._head_end : end])
        except ServiceError as exc:
            self._reply_error(exc.status, str(exc))
            return None
        server = self.server
        if not server.try_admit():
            metrics.inc(names.SERVER_THROTTLED)
            self._close = True  # the client comes back after Retry-After
            self._reply_error(
                429,
                f"server at capacity ({server.max_inflight} in-flight)",
                extra_headers=[("Retry-After", "1")],
            )
            return None
        if server.is_warm_plan(self.path, body):
            self._answer_post(body, computes=False)
            return None
        return functools.partial(self._answer_post, body, computes=True)

    def _answer_post(self, body: dict, computes: bool) -> None:
        """Answer an admitted POST from the service, then release it."""
        server = self.server
        try:
            if computes:
                # Chaos drills can delay, hang, or fail admitted requests
                # here, off the selector (an injected error surfaces as a
                # well-formed 500 below).
                faults.fire("server.request")
            if self.path == "/plan":
                response = server.service.plan(body)
            else:
                response = server.service.evaluate(body)
            if computes and self.path == "/plan":
                server.remember(body, response["key"])
            self._send_json(200, response)
            metrics.inc(names.SERVER_RESPONSES_OK)
        except ServiceError as exc:
            self._error(exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 - service must not die per-request
            metrics.inc(names.SERVER_ERRORS)
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            server.release()
        self._finish()


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
