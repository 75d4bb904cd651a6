#!/usr/bin/env python3
"""End-to-end ``repro-serve`` benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {hot-plan,mixed,sharded-mixed}
        --seed N --seconds S --trace {0,1}

``--trace 0`` starts the real ``repro-serve`` ``SETUPS`` times, timing each
set-up (spawn -> banner -> ``/healthz`` ok with every shard up -> warm set
planned), then drives the last one with the seeded closed-loop schedule for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs the
same traffic once untraced and once against ``perfbench/launcher.py``, and
prints the per-layer breakdown.  Every run audits every answer; the last
stdout line is the JSON result, the line before it the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from loadgen import Generator, get_json, percentile
from spans import breakdown, by_request, self_times
from stack import ROOT, SRC, Server, peak_rss_mb, server_command
from workloads import STRATEGIES, WORKLOAD_SPECS, Request, schedule, warm_set

sys.path.insert(0, SRC)
try:
    import audit
except ImportError as exc:  # a checkout without the program under test
    print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

RUN_DIR = os.path.join(ROOT, ".perfbench-run")

SETUPS = 3
#: Share of request wall time the traced layers must account for.
COVERAGE_FLOOR = 0.95
#: Schedule length per second of run: far above any rate seen here, so a
#: run ends on its clock, not by running out of requests.
MAX_RPS = 4000

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "cold_plan_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Session:
    """One server lifetime: boot, warm the warm set, optionally a timed phase."""

    def __init__(self, spec, warm, sched, run_dir, tag, traced):
        self.spec, self.warm, self.sched = spec, warm, sched
        self.spans_path = os.path.join(run_dir, f"spans-{tag}.json") if traced else None
        cmd = server_command(
            cache_size=len(warm) + len(sched),
            workers=spec.workers,
            shard_dir=os.path.join(run_dir, f"shards-{tag}"),
            spans_out=self.spans_path,
        )
        self.server = Server(cmd, os.path.join(run_dir, f"server-{tag}.log"))
        # The warm set is fresh when planned: each must come back uncached.
        self.warm_requests = [Request("cold", body) for body in warm]
        self.warm_results = [None] * len(warm)
        self.results = [None] * len(sched)
        self.issued = 0

    def snapshot(self) -> dict:
        payload = get_json(self.server.host, self.server.port, "/metrics")
        payload["health"] = get_json(self.server.host, self.server.port, "/healthz")
        return payload

    def boot(self) -> float:
        """Start and warm the server; returns the set-up seconds."""
        t0 = time.perf_counter()
        self.server.start()
        self.server.wait_healthy(self.spec.workers)
        # Two connections, like the timed load, so set-up (and hot-plan's
        # fresh-plan latency) draws on both cores of the shared host: one at
        # a time, every plan ran on whichever core the server sat on, and
        # that core's speed split runs into a fast and a slow group.
        gen = Generator(self.server.host, self.server.port, keep_alive=False)
        rids = [f"w{i}" for i in range(len(self.warm))]
        gen.run(self.warm_requests, rids, 0, len(self.warm), self.warm_results)
        gen.close()
        self.setup_s = time.perf_counter() - t0
        self.after_setup = self.snapshot()
        return self.setup_s

    def timed(self, seconds: float) -> None:
        """The timed phase: the exact-count window, then until the clock."""
        gen = Generator(self.server.host, self.server.port, self.spec.keep_alive)
        window = min(self.spec.window, len(self.sched))
        rids = list(range(len(self.sched)))
        cpu0, t0 = time.process_time(), time.perf_counter()
        gen.run(self.sched, rids, 0, window, self.results)
        cpu1, t1 = time.process_time(), time.perf_counter()
        self.after_window = self.snapshot()
        cpu2, t2 = time.process_time(), time.perf_counter()
        remaining = seconds - (t1 - t0)
        self.issued = window
        if remaining > 0:
            self.issued = gen.run(self.sched, rids, window, len(self.sched),
                                  self.results, deadline=t2 + remaining)
        cpu3, t3 = time.process_time(), time.perf_counter()
        gen.close()
        self.window = window
        self.elapsed = (t1 - t0) + (t3 - t2)
        self.cpu_share = ((cpu1 - cpu0) + (cpu3 - cpu2)) / self.elapsed
        self.after_timed = self.snapshot()
        self.peak_rss_mb = peak_rss_mb(self.server.proc.pid)

    def stop(self):
        code = self.server.stop()
        if code != 0:
            raise RuntimeError(f"server exited with {code}; see {self.server.log_path}")
        if self.spans_path is not None:
            with open(self.spans_path) as fh:
                return json.load(fh)
        return None


class Ledger:
    """Answer checks, recomputation and exact counts for one or more sessions."""

    def __init__(self, seed):
        self.seed, self.keys = seed, audit.KeyBook()
        self.attempted = self.failed = 0
        self.problems = []
        self.answered = []
        self.counts = []

    def responses(self, requests, results):
        """Check every answer; keep the good ones for recomputation."""
        for request, result in zip(requests, results):
            doc, problem = audit.check(request, result, self.keys)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(problem)
            else:
                self.answered.append((request, doc))

    def session(self, session):
        """Audit a timed session: warm-up, timed answers, window counts."""
        self.responses(session.warm_requests, session.warm_results)
        self.responses(session.sched[: session.issued], session.results[: session.issued])
        predicted = audit.predicted_counts(session.sched[: session.window], session.spec.workers > 0)
        measured = audit.measured_counts(session.after_setup, session.after_window, list(predicted))
        self.counts.append({"predicted": predicted, "measured": measured})
        if measured != predicted:
            self.problems.append(f"exact counts differ: measured {measured}, predicted {predicted}")

    def recompute(self):
        self.problems.extend(audit.recompute_sample(self.answered, self.seed))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _ms_percentile(seconds, q):
    return 1e3 * percentile(seconds, q)


def end_to_end(spec, seed, seconds, warm, sched, run_dir):
    """``--trace 0``: the end-to-end metrics of the workload."""
    ledger = Ledger(seed)
    setups, setup_cold = [], []
    for boot in range(SETUPS):
        session = Session(spec, warm, sched, run_dir, f"boot{boot}", traced=False)
        try:
            setups.append(session.boot())
            setup_cold += [r.latency_s for r in session.warm_results if r is not None]
            if boot == SETUPS - 1:
                session.timed(seconds)
        finally:
            session.stop()
        if boot < SETUPS - 1:
            ledger.responses(session.warm_requests, session.warm_results)
    ledger.session(session)
    ledger.recompute()

    done = [r for r in session.results[: session.issued] if r is not None]
    latencies = [r.latency_s for r in done]
    cold = [r.latency_s for r in done if sched[r.index].kind == "cold"]
    metrics = {
        "throughput_rps": (len(done) - ledger.failed) / session.elapsed,
        "p50_ms": _ms_percentile(latencies, 50),
        "p95_ms": _ms_percentile(latencies, 95),
        # Hot-plan sends no fresh plans while timed; its fresh plans are the
        # warm set planned by its three set-ups.
        "cold_plan_p50_ms": _ms_percentile(cold or setup_cold, 50),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": session.peak_rss_mb,
    }
    by_kind = {}
    for r in done:
        by_kind.setdefault(sched[r.index].kind, []).append(1e3 * r.latency_s)
    record = {
        "setups_s": setups,
        # Kept to compare its spread with p95's, where the tail allows.
        "p99_ms": _ms_percentile(latencies, 99) if len(latencies) >= 1000 else None,
        "latency_ms_by_class": {
            kind: {"n": len(v), "quartiles": statistics.quantiles(v, n=4)}
            for kind, v in sorted(by_kind.items())
        },
        "requests_timed": session.issued,
        "cold_plans": len(cold) or len(setup_cold),
        "elapsed_s": session.elapsed,
        "loadgen_cpu_share": session.cpu_share,
    }
    return metrics, ledger, record


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _timer(payload, name):
    timer = payload["metrics"]["timers"].get(name, {})
    return timer.get("total", 0.0), timer.get("count", 0)


def per_layer(spec, seed, seconds, warm, sched, run_dir):
    """``--trace 1``: untraced then traced session; the layer breakdown."""
    ledger = Ledger(seed)
    sessions = {}
    spans = None
    for tag in ("untraced", "traced"):
        session = Session(spec, warm, sched, run_dir, tag, traced=tag == "traced")
        try:
            session.boot()
            session.timed(seconds)
        finally:
            spans = session.stop()
        sessions[tag] = session
        ledger.session(session)
    ledger.recompute()
    plain, traced = sessions["untraced"], sessions["traced"]

    # Tracing must not change a single answer.
    common = min(plain.issued, traced.issued)
    volatile = ("computed_at",)
    for a, b in zip(plain.warm_results + plain.results[:common],
                    traced.warm_results + traced.results[:common]):
        if a is None or b is None:
            continue
        da, db = json.loads(a.body), json.loads(b.body)
        for doc in (da, db):
            for field in volatile:
                doc.pop(field, None)
        if da != db:
            ledger.problems.append("traced answer differs from the untraced one")
            break

    grouped = by_request(spans)
    timed = {r.index: r.latency_s for r in traced.results[: traced.issued] if r is not None}
    bd = breakdown(grouped, timed)
    n = max(bd["requests"], 1)
    layer_ms = {layer: 1e3 * seconds / n for layer, seconds in bd["layers"].items()}

    # Fresh-plan and Monte-Carlo layers: the timed phase when it computes
    # anything, else (hot-plan) the set-up that planned the warm set.
    kinds = {i: sched[i].kind for i in timed}
    computing = [i for i, kind in kinds.items() if kind != "warm"]
    if computing:
        work_rids = computing
        before, after = traced.after_setup, traced.after_timed
        bodies = {i: sched[i].body for i in computing}
    else:
        work_rids = [f"w{i}" for i in range(len(warm))]
        before, after = None, traced.after_setup
        bodies = {f"w{i}": body for i, body in enumerate(warm)}
    work = [s for rid in work_rids for s in grouped.get(rid, [])]
    selfs = self_times(work)
    computes = [s for s in work if s["name"] == "plancache.compute"]
    mcs = [s for s in work if s["name"] == "mc.evaluate"]

    def delta(name):
        return audit.counter(after, name) - (audit.counter(before, name) if before else 0)

    kernel_total, kernel_count = _timer(after, "mc.kernel")
    if before is not None:
        total0, count0 = _timer(before, "mc.kernel")
        kernel_total, kernel_count = kernel_total - total0, kernel_count - count0

    timed_spans = [s for rid in timed for s in grouped.get(rid, [])]
    cache_spans = [s for s in timed_spans if s["name"] == "cache"]
    cold_timed = sum(1 for k in kinds.values() if k == "cold")
    session_end = traced.after_timed

    metrics = {
        "server.self_ms": (layer_ms["server"], "ms"),
        "server.throttled": (audit.counter(session_end, "server.throttled"), "count"),
        "planner.self_ms": (layer_ms["planner"], "ms"),
        "plancache.get_us": (1e6 * _mean(s["end"] - s["start"] for s in cache_spans if s.get("cached")), "us"),
        "plancache.hit_ratio": (_mean(1.0 if s.get("cached") else 0.0 for s in cache_spans), "ratio"),
        "plancache.compute_ms": (1e3 * _mean(s["end"] - s["start"] for s in computes), "ms"),
        "strategies.sequence_ms": (1e3 * _mean(selfs[s["id"]] for s in computes), "ms"),
    }
    for name in STRATEGIES:
        mine = [selfs[s["id"]] for s in computes if bodies[s["rid"]]["strategy"]["name"] == name]
        metrics[f"strategies.{name}.sequence_ms"] = (1e3 * _mean(mine), "ms")
    metrics.update({
        "ladder.degraded": (audit.counter(session_end, "resilience.degraded_responses"), "count"),
        "ladder.fallbacks": (audit.counter(session_end, "resilience.fallbacks"), "count"),
        "pool.tasks": (delta("pool.tasks") / max(len(mcs), 1), "task/eval"),
        "mc.evaluate_ms": (1e3 * _mean(s["end"] - s["start"] for s in mcs), "ms"),
        "mc.kernel_ms": (1e3 * kernel_total / max(kernel_count, 1), "ms"),
        "mc.samples": (delta("mc.samples") / max(len(mcs), 1), "sample/eval"),
        "router.self_ms": (layer_ms["router"], "ms"),
        "router.failovers": (audit.counter(session_end, "shard.failovers"), "count"),
        "shard.get_ms": (1e3 * _mean(s["end"] - s["start"] for s in timed_spans
                                     if s["name"] in ("store.get", "rpc.get")), "ms"),
        "shard.put_ms": (1e3 * _mean(s["end"] - s["start"] for s in work
                                     if s["name"] in ("store.put", "rpc.put")), "ms"),
        "shard.rpc_per_request": (sum(1 for s in timed_spans if s["name"].startswith("rpc."))
                                  / n, "rpc/request"),
        "shard.rpc_failures": (audit.counter(session_end, "shard.rpc_failures"), "count"),
        "journal.appends": ((audit.journal_total(traced.after_timed, "appends")
                             - audit.journal_total(traced.after_setup, "appends"))
                            / max(cold_timed, 1), "append/plan"),
        "journal.compactions": (audit.journal_total(session_end, "compactions"), "count"),
        "loadgen.cpu_share": (plain.cpu_share, "ratio"),
        "trace.coverage": (bd["covered"] / bd["wall"], "ratio"),
        "trace.overhead": (1.0 - (traced.issued / traced.elapsed)
                           / (plain.issued / plain.elapsed), "ratio"),
    })
    if bd["covered"] < COVERAGE_FLOOR * bd["wall"]:
        ledger.problems.append(f"layer self times cover {bd['covered'] / bd['wall']:.1%} of wall time")
    if spec.workers:
        # Request-path RPCs of the window: one get per hit, and get,
        # single-flight re-get and put per fresh plan.
        window_rpcs = sum(1 for i in range(traced.window) for s in grouped.get(i, [])
                          if s["name"].startswith("rpc."))
        predicted = traced.window + 2 * sum(1 for r in sched[: traced.window] if r.kind == "cold")
        if window_rpcs != predicted:
            ledger.problems.append(f"request-path RPCs {window_rpcs}, predicted {predicted}")
    record = {
        "requests_timed": {"untraced": plain.issued, "traced": traced.issued},
        "spans": len(spans),
        "layer_share": {k: v / bd["wall"] for k, v in bd["layers"].items()},
    }
    return metrics, ledger, record


def _finite(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOAD_SPECS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = WORKLOAD_SPECS[args.workload]
    warm = warm_set(spec.name, args.seed)
    sched = schedule(spec.name, args.seed, max(spec.window, int(args.seconds * MAX_RPS)), warm)

    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.trace:
            metrics, ledger, record = per_layer(spec, args.seed, args.seconds, warm, sched, run_dir)
        else:
            values, ledger, record = end_to_end(spec, args.seed, args.seconds, warm, sched, run_dir)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # another run still uses it

    record.update({
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host(),
        "git_sha": _git_sha(),
        "attempted": ledger.attempted,
        "succeeded": ledger.attempted - ledger.failed,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "exact_counts": ledger.counts,
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
