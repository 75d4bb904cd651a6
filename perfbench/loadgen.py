"""Closed-loop load generator and the statistics helpers the benchmark uses.

One process, ``CONNECTIONS`` client threads.  Each thread sends its next
request only after the previous answer has been read in full (a closed
loop), taking the next unsent entry of one shared schedule, so the order
requests are *issued* in is the schedule order whatever the interleaving.
Keep-alive mode holds one persistent HTTP/1.1 connection per thread, the
way a pooled client talks; otherwise every request opens a new connection
and sends ``Connection: close``, the way ``urllib``/``ServiceClient`` do.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Client connections; the benchmark host has two cores.
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0
#: A percentile needs at least this many samples above it to be reported.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it: such a tail is a handful of outliers, not a
    percentile.
    """
    n = len(values)
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    beyond = n * (1.0 - q / 100.0)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(values)
    rank = q / 100.0 * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Result:
    """One request as the client saw it (``status`` 0 = transport error)."""

    index: int
    start: float
    end: float
    status: int
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.end - self.start


class Generator:
    """Closed-loop client over ``CONNECTIONS`` threads."""

    def __init__(self, host: str, port: int, keep_alive: bool):
        self.host, self.port, self.keep_alive = host, port, keep_alive
        self._conns: List[Optional[http.client.HTTPConnection]] = [None] * CONNECTIONS

    def close(self) -> None:
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns = [None] * len(self._conns)

    def _send(self, slot: int, path: str, payload: bytes):
        headers = {"Content-Type": "application/json"}
        conn = self._conns[slot]
        if conn is None or not self.keep_alive:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
            if self.keep_alive:
                self._conns[slot] = conn
            else:
                headers["Connection"] = "close"
        try:
            conn.request("POST", path, payload, headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self._conns[slot] = None
            return 0, b""
        finally:
            if not self.keep_alive:
                conn.close()

    def run(self, requests, rids, start: int, stop: int, results: list,
            deadline: Optional[float] = None) -> int:
        """Issue ``requests[start:stop]`` (until ``deadline``, a
        ``perf_counter`` instant); returns the index one past the last issued.

        ``results[i]`` receives request ``i``'s :class:`Result`; ``rids[i]``
        is sent as the body's ``bench_rid`` field, which the planner ignores.
        """
        lock = threading.Lock()
        cursor = [start]

        def worker(slot: int) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= stop or (deadline is not None and time.perf_counter() >= deadline):
                        return
                    cursor[0] = i + 1
                request = requests[i]
                payload = json.dumps({**request.body, "bench_rid": rids[i]}).encode()
                t0 = time.perf_counter()
                status, body = self._send(slot, request.path, payload)
                results[i] = Result(i, t0, time.perf_counter(), status, body)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(len(self._conns))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return cursor[0]


def get_json(host: str, port: int, path: str) -> dict:
    """One ``GET`` on a fresh connection (``/metrics``, ``/healthz``)."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body)
    finally:
        conn.close()
