"""Traced twin of ``repro-serve``: the same stack with timing proxies.

Boots ``PlannerService`` + ``serve()`` (plus a ``ShardFleet`` with
``--workers``) with repro-serve's default settings, and records spans at
the seams the stack already has, without changing which code runs:

* ``planner.plan`` / ``planner.evaluate`` -- wrappers around the service's
  ``plan``/``evaluate`` (``evaluate`` calls ``self.plan``, so its plan
  lookup nests), and ``mc.evaluate`` around ``_mc_stats`` (the
  degradation ladder and Monte-Carlo run);
* ``cache`` -- the cache tier's ``get_or_compute`` (or the sharded tier's
  ``get_or_compute_routed``), with ``plancache.compute`` around the factory
  it is handed;
* ``rpc.<op>`` -- ``ShardClient.call`` RPCs, swapped in through
  ``ShardedPlanCache.set_client``; in single-process mode ``store.get`` /
  ``store.put`` time the in-process ``PlanCache.get``/``put`` instead (the
  cache is one local shard).

A span belongs to the request whose ``bench_rid`` body field (ignored by
the planner) opened the outermost span on that thread; work outside a
request (supervisor pings, ``/healthz``) is not recorded.  Spans stay in
memory and are written to ``--spans-out`` as JSON on shutdown.

Usage: python perfbench/launcher.py --spans-out FILE [--port 0]
       [--cache-size N] [--workers N --shard-dir DIR]
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
import threading
import time
from contextlib import contextmanager
from typing import Mapping

from repro import observability as obs
from repro.service.plancache import PlanCache
from repro.service.planner import PlannerService, ResilienceOptions
from repro.service.pool import get_backend
from repro.service.router import ShardFleet
from repro.service.server import serve
from repro.service.shard import ShardClient


class Recorder:
    """In-memory span store; the parent is the innermost open span."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        if rid is None:  # not on a request's path
            yield None
            return
        record = {
            "name": name,
            "id": next(self._ids),
            "parent": parent["id"] if parent is not None else None,
            "rid": rid,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class TracedPlanCache(PlanCache):
    """In-process cache tier: ``get``/``put`` are its storage operations."""

    def __init__(self, recorder: Recorder, **kwargs):
        super().__init__(**kwargs)
        self._rec = recorder

    def get(self, key):
        with self._rec.span("store.get"):
            return super().get(key)

    def put(self, key, payload, created_at=None):
        with self._rec.span("store.put"):
            return super().put(key, payload, created_at)

    def get_or_compute(self, key, factory):
        with self._rec.span("cache") as span:
            payload, cached = super().get_or_compute(
                key, self._rec.wrap("plancache.compute", factory)
            )
            if span is not None:
                span["cached"] = cached
            return payload, cached


class TracedTier:
    """Sharded cache tier: times the routed call, delegates the rest."""

    def __init__(self, recorder: Recorder, inner):
        self._rec, self._inner = recorder, inner
        self.maxsize, self.ttl = inner.maxsize, inner.ttl

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get_or_compute_routed(self, key, factory):
        with self._rec.span("cache") as span:
            payload, cached, route = self._inner.get_or_compute_routed(
                key, self._rec.wrap("plancache.compute", factory)
            )
            if span is not None:
                span["cached"] = cached
            return payload, cached, route


class TracedShardClient(ShardClient):
    """A shard endpoint whose RPCs on a request's path are spans."""

    def __init__(self, recorder: Recorder, client: ShardClient):
        super().__init__(client.host, client.port, client.shard_id, timeout=client.timeout)
        self._rec = recorder

    def call(self, request):
        with self._rec.span(f"rpc.{request.get('op')}"):
            return super().call(request)


def _request_span(recorder: Recorder, name: str, fn):
    def traced(request):
        rid = request.get("bench_rid") if isinstance(request, Mapping) else None
        with recorder.span(name, rid=rid):
            return fn(request)

    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launcher", description=__doc__.split("\n")[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--shard-dir", default="repro-shards")
    args = parser.parse_args(argv)

    # Everything below uses repro-serve's defaults (backend "thread" with
    # jobs 0, 5000 samples, seed 0, default resilience, 8 in flight, 1 MiB
    # journal segments).
    obs.enable()
    recorder = Recorder()
    fleet = None
    if args.workers > 0:
        fleet = ShardFleet(
            n_shards=args.workers, data_dir=args.shard_dir,
            maxsize_per_shard=args.cache_size, ttl=None, journal_max_bytes=1 << 20,
        )
        sharded = fleet.start()
        for sid in range(args.workers):
            sharded.set_client(sid, TracedShardClient(recorder, sharded.client(sid)))
        cache = TracedTier(recorder, sharded)
    else:
        cache = TracedPlanCache(recorder, maxsize=args.cache_size, ttl=None)
    service = PlannerService(
        cache=cache, backend=get_backend("thread", 0), n_samples=5000, seed=0,
        resilience=ResilienceOptions(),
    )
    service.plan = _request_span(recorder, "planner.plan", service.plan)
    service.evaluate = _request_span(recorder, "planner.evaluate", service.evaluate)
    service._mc_stats = recorder.wrap("mc.evaluate", service._mc_stats)
    server = serve(service, host="127.0.0.1", port=args.port, max_inflight=8)

    def _shutdown(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _shutdown)
    print(f"traced repro-serve listening on http://127.0.0.1:{server.port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        server.drain(timeout=30.0)
        with open(args.spans_out, "w") as fh:
            json.dump(recorder.spans, fh)
        if fleet is not None:
            fleet.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
