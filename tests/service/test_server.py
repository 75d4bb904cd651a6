"""HTTP front end: round trip, error mapping, admission control, wire shape.

Most tests boot a real :class:`PlanServer` on an ephemeral port with the
accept loop in a daemon thread — the same shape the CI service job drives
through ``repro-serve``.  The wire-shape tests drive the request handler
over a recording socket instead, to see each ``sendall`` it makes.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import observability as obs
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.plancache import PlanCache
from repro.service.planner import PlannerService
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
            # retry=None: this test asserts the *first* 429, not the
            # client's default retry-on-429 behavior.
            client = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout=10, retry=None
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
    """A connected-socket stand-in: serves ``request`` to the handler's
    reader and records every ``sendall`` the handler makes."""

    def __init__(self, request: bytes):
        self._request = request
        self.sent: list = []

    def makefile(self, mode, *args, **kwargs):
        assert mode == "rb"
        return io.BytesIO(self._request)

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))


def _drive(server, request: bytes) -> list:
    """Run one handler over ``request``; returns the writes it made."""
    sock = RecordingSocket(request)
    _Handler(sock, ("127.0.0.1", 0), server)
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
