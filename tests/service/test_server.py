"""HTTP front end: round trip, error mapping, admission control, wire
shape, and overload (stalled, idle and slow clients).

Most tests boot a real :class:`PlanServer` on an ephemeral port with the
accept loop in a daemon thread — the same shape the CI service job drives
through ``repro-serve``.  The wire-shape tests drive the request handler
over a recording socket instead, to see each ``sendall`` it makes.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from email.utils import parsedate_to_datetime

import pytest

from repro import observability as obs
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.policies import RetryPolicy
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.plancache import PlanCache
from repro.service.planner import PlannerService
from repro.service import server as server_module
from repro.service.server import _Handler, serve

PARAMS = {"mu": 3.0, "sigma": 0.5}


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


@pytest.fixture()
def live_server(registry):
    service = PlannerService(cache=PlanCache(maxsize=16), n_samples=300, seed=0)
    server = serve(service, port=0, max_inflight=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def client(live_server):
    return ServiceClient(f"http://127.0.0.1:{live_server.port}", timeout=30)


class TestRoundTrip:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["cache"]["maxsize"] == 16

    def test_plan_then_cache_hit_then_metrics(self, client):
        first = client.plan("lognormal", PARAMS, n_samples=300)
        second = client.plan("lognormal", PARAMS, n_samples=300)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["key"] == second["key"]

        counters = client.metrics()["metrics"]["counters"]
        assert counters["plancache.hits"] == 1
        assert counters["server.requests"] >= 3

    def test_evaluate(self, client):
        client.plan("lognormal", PARAMS)
        resp = client.evaluate("lognormal", PARAMS, n_samples=500, seed=2)
        assert resp["cached"] is True
        assert resp["evaluation"]["n_samples"] == 500


class TestErrorMapping:
    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._request("/nope")
        assert err.value.status == 404

    def test_unknown_distribution_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.plan("cauchy", {})
        assert err.value.status == 400
        assert "unknown distribution" in err.value.message

    def test_empty_body_400(self, live_server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{live_server.port}/plan",
            data=b"",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_malformed_json_400(self, live_server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{live_server.port}/plan",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode("utf-8"))
        assert "invalid JSON" in body["error"]


class TestAdmissionControl:
    def test_saturated_server_sheds_load_with_429(self, registry):
        """max_inflight=0 admits nothing: POSTs get 429 + Retry-After while
        /healthz and /metrics stay reachable."""
        service = PlannerService(n_samples=100)
        server = serve(service, port=0, max_inflight=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # One attempt: this test asserts the *first* 429, not the
            # client's default retry-on-429 behavior.
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}",
                timeout=10,
                retry=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ServiceHTTPError) as err:
                client.plan("lognormal", PARAMS)
            assert err.value.status == 429
            assert err.value.retry_after == 1.0
            assert client.healthz()["status"] == "ok"
            counters = client.metrics()["metrics"]["counters"]
            assert counters["server.throttled"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_retry_after_header(self, registry):
        service = PlannerService(n_samples=100)
        server = serve(service, port=0, max_inflight=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            req = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/plan",
                data=json.dumps(
                    {"distribution": {"law": "lognormal", "params": PARAMS}}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] == "1"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _plan_body() -> bytes:
    return json.dumps(
        {"distribution": {"law": "lognormal", "params": PARAMS}, "n_samples": 300}
    ).encode()


class TestKeepAlive:
    """A reply sent before the request body was read closes the connection,
    so the unread body is never parsed as the next request line."""

    def _post(self, conn, path):
        conn.request(
            "POST", path, _plan_body(), {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response, response.read()

    def test_plan_after_404_on_same_connection(self, live_server):
        conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=30)
        try:
            response, _ = self._post(conn, "/nope")
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response, body = self._post(conn, "/plan")
            assert response.status == 200, body
            assert "reservations" in json.loads(body)["plan"]
        finally:
            conn.close()

    def test_plan_after_429_on_same_connection(self, live_server):
        conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=30)
        for _ in range(live_server.max_inflight):  # fill the admission budget
            assert live_server.try_admit()
        try:
            response, _ = self._post(conn, "/plan")
            assert response.status == 429
            assert response.getheader("Connection") == "close"
        finally:
            for _ in range(live_server.max_inflight):
                live_server.release()
        try:
            response, body = self._post(conn, "/plan")
            assert response.status == 200, body
        finally:
            conn.close()

    def test_answered_plans_keep_the_connection(self, live_server):
        conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=30)
        try:
            for _ in range(3):
                response, _ = self._post(conn, "/plan")
                assert response.status == 200
                assert response.getheader("Connection") is None
                assert not response.will_close
        finally:
            conn.close()


class RecordingSocket:
    """A connected-socket stand-in that records every ``send`` the
    handler makes, each taken in full."""

    def __init__(self):
        self.sent: list = []

    def send(self, data) -> int:
        self.sent.append(bytes(data))
        return len(data)


def _drive(server, request: bytes) -> list:
    """Run one connection's handler over ``request`` as if it had arrived
    at once, computing inline; returns the writes it made."""
    sock = RecordingSocket()
    handler = _Handler(sock, server)
    handler.inbuf += request
    handler.run(handler.on_input())
    return sock.sent


def _post_request(path: str) -> bytes:
    body = _plan_body()
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestOneWritePerResponse:
    """Headers and body leave in one ``sendall``: a second, small send
    would wait on Nagle's algorithm for the client's delayed ACK."""

    @pytest.fixture()
    def offline_server(self, registry):
        service = PlannerService(cache=PlanCache(maxsize=16), n_samples=300, seed=0)
        servers = []

        def make(max_inflight):
            server = serve(service, port=0, max_inflight=max_inflight)
            servers.append(server)
            return server

        yield make
        for server in servers:
            server.server_close()

    @pytest.mark.parametrize(
        "max_inflight, request_bytes, status",
        [
            (4, _post_request("/plan"), 200),
            (4, _post_request("/nope"), 404),
            (0, _post_request("/plan"), 429),
            (4, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n", 200),
            (4, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 200),
        ],
        ids=["plan-200", "404", "429", "metrics", "healthz"],
    )
    def test_response_is_one_sendall(
        self, offline_server, max_inflight, request_bytes, status
    ):
        sent = _drive(offline_server(max_inflight), request_bytes)
        assert len(sent) == 1
        head, _, body = sent[0].partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)
        json.loads(body)
        if status == 429:
            assert headers["Retry-After"] == "1"

    def test_keep_alive_requests_each_take_one_sendall(self, offline_server):
        sent = _drive(offline_server(4), _post_request("/plan") * 3)
        assert len(sent) == 3
        assert all(msg.startswith(b"HTTP/1.1 200 ") for msg in sent)


def _split_response(message: bytes):
    """``(status, headers, body)`` of one raw HTTP response."""
    head, _, body = message.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


def _recv_until_closed(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestProtocolEdges:
    """The handler's own HTTP/1.1 parsing: ``Expect``, HTTP/1.0, and
    protocol errors answered as JSON on a closing connection."""

    @pytest.fixture()
    def server(self, registry):
        service = PlannerService(cache=PlanCache(maxsize=16), n_samples=300, seed=0)
        server = serve(service, port=0, max_inflight=4)
        yield server
        server.server_close()

    def test_expect_100_continue_before_the_body(self, live_server):
        body = _plan_body()
        head = (
            f"POST /plan HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode()
        address = ("127.0.0.1", live_server.port)
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(head)
            # The body is held back until the server asks for it.
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, headers, payload = _split_response(_recv_until_closed(sock))
        assert status == 200
        assert "reservations" in json.loads(payload)["plan"]

    def test_http10_request_closes_the_connection(self, live_server):
        address = ("127.0.0.1", live_server.port)
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, body = _split_response(_recv_until_closed(sock))
        assert status == 200
        assert headers["Connection"] == "close"
        assert json.loads(body)["status"] == "ok"

    def test_http10_keep_alive_is_honoured(self, server):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        sent = _drive(server, request * 2)
        assert len(sent) == 2
        assert all("Connection" not in _split_response(m)[1] for m in sent)

    def test_connection_close_is_honoured(self, server):
        request = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        sent = _drive(server, request + HEALTHZ)
        assert len(sent) == 1
        assert _split_response(sent[0])[1]["Connection"] == "close"

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
                + b"\r\n",
                431,
            ),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"v" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"PUT /plan HTTP/1.1\r\nHost: test\r\n\r\n", 501),
            (
                b"POST /plan HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                400,
            ),
            (
                b"POST /plan HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: many\r\n\r\n{}",
                400,
            ),
        ],
        ids=[
            "bad-request-line", "bad-version", "long-line-414", "101-headers-431",
            "long-header-431", "bad-header-400", "put-501", "chunked-400",
            "bad-content-length-400",
        ],
    )
    def test_protocol_error_is_json_and_closes(self, server, request_bytes, status):
        # A valid request follows on the same connection: it must not be read.
        sent = _drive(server, request_bytes + HEALTHZ)
        assert len(sent) == 1
        got, headers, body = _split_response(sent[0])
        assert got == status
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["error"]

    def test_one_hundred_headers_are_accepted(self, server):
        request = (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(100))
            + b"\r\n"
        )
        sent = _drive(server, request)
        assert _split_response(sent[0])[0] == 200

    @pytest.mark.parametrize(
        "max_inflight, request_bytes",
        [
            (4, _post_request("/plan")),
            (4, _post_request("/nope")),
            (0, _post_request("/plan")),
            (4, HEALTHZ),
            (4, b"GET /metrics HTTP/1.1\r\n\r\n"),
            (4, b"DELETE /plan HTTP/1.1\r\n\r\n"),
            (4, b"NONSENSE\r\n\r\n"),
        ],
        ids=["plan-200", "404", "429", "healthz", "metrics", "501", "400"],
    )
    def test_every_response_carries_a_date(self, registry, max_inflight, request_bytes):
        service = PlannerService(cache=PlanCache(maxsize=16), n_samples=300, seed=0)
        server = serve(service, port=0, max_inflight=max_inflight)
        try:
            sent = _drive(server, request_bytes)
        finally:
            server.server_close()
        _, headers, _ = _split_response(sent[-1])
        assert parsedate_to_datetime(headers["Date"]).tzinfo is not None
        assert "Server" not in headers


# ----------------------------------------------------------------------
# Overload: a stalled, idle or slow client holds a socket, not a thread
# ----------------------------------------------------------------------
STALLED_HEAD = (
    b"POST /plan HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
    b"Content-Length: 100\r\n\r\n"
)
#: The stated bound: every well-formed POST beside stalled ones is
#: answered within it (a 300-sample cold plan takes milliseconds).
ANSWER_BOUND_S = 5.0


def _read_response(reader) -> tuple:
    """``(status, headers, body)`` of the next response on a
    ``makefile("rb")`` reader."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name] = value.strip()
    return status, headers, reader.read(int(headers["Content-Length"]))


class TestOverload:
    @pytest.fixture()
    def pool_server(self, registry):
        """Starts served servers; a 50 ms poll checks deadlines promptly."""
        started = []

        def start(max_inflight=2, service=None):
            if service is None:
                service = PlannerService(
                    cache=PlanCache(maxsize=16), n_samples=300, seed=0
                )
            server = serve(service, port=0, max_inflight=max_inflight)
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            started.append((server, thread))
            return server

        yield start
        for server, thread in started:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @staticmethod
    def _client(server) -> ServiceClient:
        return ServiceClient(
            f"http://127.0.0.1:{server.port}",
            timeout=10,
            retry=RetryPolicy(max_attempts=1),
        )

    def test_stalled_posts_hold_no_admission_slot(self, pool_server):
        server = pool_server(max_inflight=2)
        address = ("127.0.0.1", server.port)
        stalled = [
            socket.create_connection(address, timeout=10)
            for _ in range(server.max_inflight)
        ]
        try:
            for sock in stalled:
                sock.sendall(STALLED_HEAD)
            client = self._client(server)
            for sigma in (0.4, 0.5, 0.6):
                started = time.monotonic()
                resp = client.plan("lognormal", {"mu": 3.0, "sigma": sigma})
                assert time.monotonic() - started < ANSWER_BOUND_S
                assert "reservations" in resp["plan"]
            assert server.drain(timeout=2.0)
        finally:
            for sock in stalled:
                sock.close()

    @pytest.mark.parametrize(
        "sent",
        [b"POST /plan HTTP/1.1\r\nHost: test\r\n", STALLED_HEAD + b'{"dist'],
        ids=["head", "body"],
    )
    def test_stalled_request_gets_408_and_closes(
        self, pool_server, monkeypatch, sent
    ):
        monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.3)
        server = pool_server()
        address = ("127.0.0.1", server.port)
        with socket.create_connection(address, timeout=5) as sock:
            started = time.monotonic()
            sock.sendall(sent)
            status, headers, body = _split_response(_recv_until_closed(sock))
            waited = time.monotonic() - started
        assert status == 408
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["error"]
        assert 0.3 <= waited < 3.0

    def test_idle_keep_alive_connection_closes(self, pool_server, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_LIMIT_S", 0.3)
        server = pool_server()
        address = ("127.0.0.1", server.port)
        with socket.create_connection(address, timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(HEALTHZ)
            status, headers, _ = _read_response(reader)
            assert status == 200 and "Connection" not in headers
            started = time.monotonic()
            assert reader.read(1) == b""  # closed by the server
            assert 0.25 <= time.monotonic() - started < 3.0

    def test_idle_connections_hold_no_threads(self, pool_server):
        baseline = threading.active_count()
        server = pool_server(max_inflight=4)
        address = ("127.0.0.1", server.port)
        conns = []
        try:
            for _ in range(100):
                sock = socket.create_connection(address, timeout=10)
                conns.append((sock, sock.makefile("rb")))
                sock.sendall(HEALTHZ)
                assert _read_response(conns[-1][1])[0] == 200
            # The pool, plus the thread running serve_forever.
            assert threading.active_count() <= baseline + server.max_inflight + 2
            sock, reader = conns[0]  # still open, still answered
            sock.sendall(HEALTHZ)
            assert _read_response(reader)[0] == 200
        finally:
            for sock, reader in conns:
                reader.close()
                sock.close()

    def test_a_client_that_reads_nothing_blocks_no_one(self, pool_server):
        server = pool_server()
        address = ("127.0.0.1", server.port)
        n = 20_000  # ~7 MB of replies: more than the socket buffers take
        with socket.socket() as hog:
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.settimeout(10)
            hog.connect(address)
            sender = threading.Thread(target=hog.sendall, args=(HEALTHZ * n,))
            sender.start()
            time.sleep(0.5)  # the hog's replies fill the buffers
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(HEALTHZ)
                assert _read_response(sock.makefile("rb"))[0] == 200
            reader = hog.makefile("rb")
            for _ in range(n):
                assert _read_response(reader)[0] == 200
            sender.join(timeout=10)

    def test_injected_delay_runs_off_the_selector(self, pool_server):
        server = pool_server()
        self._client(server).plan("lognormal", PARAMS)  # now a warm hit
        rule = FaultRule("server.request", "delay", seconds=1.0)
        answers = []
        with faults.installed(FaultPlan([rule])):
            poster = threading.Thread(
                target=lambda: answers.append(
                    self._client(server).plan("lognormal", PARAMS)
                )
            )
            poster.start()
            deadline = time.monotonic() + 5.0
            while rule.triggered == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert rule.triggered == 1  # a warm hit passes the site too
            started = time.monotonic()
            assert self._client(server).healthz()["status"] == "ok"
            assert time.monotonic() - started < 0.5
            poster.join(timeout=10)
        assert answers and answers[0]["cached"] is True

    def test_a_slow_cache_tier_blocks_no_one(self, pool_server):
        class SlowStatsTier:
            """A tier that is not a PlanCache: its stats stand for one RPC
            per shard of the sharded tier."""

            maxsize, ttl = 16, None

            def __init__(self):
                self.inner = PlanCache(maxsize=16)

            def get_or_compute(self, key, factory):
                return self.inner.get_or_compute(key, factory)

            def stats(self):
                time.sleep(1.0)
                return self.inner.stats()

        service = PlannerService(cache=SlowStatsTier(), n_samples=300, seed=0)
        server = pool_server(service=service)
        probe = threading.Thread(target=self._client(server).healthz)
        probe.start()
        time.sleep(0.2)  # the probe waits on the tier
        started = time.monotonic()
        assert "reservations" in self._client(server).plan("lognormal", PARAMS)["plan"]
        assert time.monotonic() - started < 0.8
        probe.join(timeout=5)
