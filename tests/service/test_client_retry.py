"""ServiceClient retry behavior against a scripted fake HTTP server.

The fake server answers from a canned list of (status, headers, body)
responses, so the tests can script "429 then 200" without a real planner.
"""

from __future__ import annotations

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.resilience.policies import RetryPolicy
from repro.service.client import ServiceClient, ServiceHTTPError


class ScriptedServer:
    """Serves a fixed script of responses, recording every request."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self._lock = threading.Lock()

        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def _serve(self):
                with outer._lock:
                    outer.requests.append(self.path)
                    index = min(len(outer.requests), len(outer.script)) - 1
                    status, headers, body = outer.script[index]
                payload = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                self._serve()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0) or 0)
                if length:
                    self.rfile.read(length)
                self._serve()

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture()
def scripted():
    servers = []

    def boot(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield boot
    for server in servers:
        server.close()


def fast_policy(recorder=None):
    return RetryPolicy(
        max_attempts=3, base_delay=0.0,
        sleep=recorder if recorder is not None else (lambda s: None),
    )


OK = (200, [], {"status": "ok"})
THROTTLE = (429, [("Retry-After", "0.01")], {"error": "at capacity"})
CRASH = (500, [], {"error": "internal error: boom"})
BAD = (400, [], {"error": "unknown strategy"})


class TestRetryOn429:
    def test_429_then_200_succeeds(self, scripted):
        server = scripted([THROTTLE, OK])
        client = ServiceClient(server.url, timeout=5, retry=fast_policy())
        assert client.healthz() == {"status": "ok"}
        assert len(server.requests) == 2

    def test_retry_after_is_honored_and_capped(self, scripted):
        server = scripted([(429, [("Retry-After", "120")], {"error": "x"}), OK])
        slept = []
        client = ServiceClient(
            server.url, timeout=5, retry=fast_policy(slept.append),
            max_retry_after=0.05,
        )
        client.healthz()
        assert slept == [0.05]  # server said 120s; the cap won

    def test_retry_none_fails_fast(self, scripted):
        server = scripted([THROTTLE, OK])
        client = ServiceClient(server.url, timeout=5, retry=None)
        with pytest.raises(ServiceHTTPError) as err:
            client.healthz()
        assert err.value.status == 429
        assert err.value.retry_after == pytest.approx(0.01)
        assert len(server.requests) == 1

    def test_exhausted_retries_reraise_last_429(self, scripted):
        server = scripted([THROTTLE])  # throttles forever
        client = ServiceClient(server.url, timeout=5, retry=fast_policy())
        with pytest.raises(ServiceHTTPError) as err:
            client.healthz()
        assert err.value.status == 429
        assert len(server.requests) == 3  # max_attempts


class TestRetryOnServerErrors:
    def test_transient_500_is_retried(self, scripted):
        server = scripted([CRASH, CRASH, OK])
        client = ServiceClient(server.url, timeout=5, retry=fast_policy())
        assert client.healthz() == {"status": "ok"}
        assert len(server.requests) == 3

    def test_client_errors_are_not_retried(self, scripted):
        server = scripted([BAD, OK])
        client = ServiceClient(server.url, timeout=5, retry=fast_policy())
        with pytest.raises(ServiceHTTPError) as err:
            client.plan("lognormal", {"mu": 3.0, "sigma": 0.5})
        assert err.value.status == 400
        assert len(server.requests) == 1

    def test_connection_errors_are_retried(self):
        # Nothing listens on this port: every attempt raises URLError.
        policy_sleeps = []
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.001, seed=0,
            sleep=policy_sleeps.append,
        )
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2, retry=policy)
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert len(policy_sleeps) == 2  # two backoffs before giving up
