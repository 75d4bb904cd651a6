#!/usr/bin/env python3
"""CI driver for the `service` and `chaos` jobs: boot ``repro-serve`` as a
real subprocess on an ephemeral port and drive it over HTTP.

Default mode (the `service` job) boots with ``--shard-dir`` (the in-process
cache journaled at ``DIR/shard-0``), exercises the plan → evaluate → metrics
round trip, asserts the second identical plan request was answered from the
cache (the ``plancache.hits`` counter is the proof), then SIGTERMs, reboots
on the same directory, and checks the server recovered exactly that one
plan from its journal and serves it ``cached: true``.

``--chaos`` (the `chaos` job) boots the server under the canned
``scripts/chaos_plan.json`` fault drill — a deterministic burst that opens
the circuit breaker, a steady 35% pool-worker failure rate, and one hung
Monte-Carlo chunk — and asserts the resilience contract: every request is
still answered, degraded answers are marked as such, and the breaker's
open → half-open arc is visible in ``/metrics``.  It then keeps probing
after each recovery window until the hung chunk has timed out and been
resubmitted (``pool.timeouts``, ``pool.retries``) and a full-fidelity
``mc`` answer arrives.  It then runs the
**shard-kill drill**: a second server with ``--workers 3`` (sharded plan
cache, per-shard journals), one shard worker SIGKILLed mid-load, and the
contract that zero requests fail, the failover is visible in
``shard.failovers``/``shard.deaths``, the supervisor restarts the worker
(``shard.restarts``), and the restarted shard answers its keys from its
replayed journal (cache hit, served by the primary again).

Usage:  python scripts/ci_service_roundtrip.py [--chaos] [repro-serve args...]
Exit status is 0 iff every step passed.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.service.client import ServiceClient

PARAMS = {"mu": 3.0, "sigma": 0.5}
CHAOS_PLAN = os.path.join(os.path.dirname(__file__), "chaos_plan.json")

BREAKER_RECOVERY_S = 2.0

#: Half-open probes the chaos drill may spend before an mc answer is due.
MAX_RECOVERY_PROBES = 8


def boot(extra_args, env=None):
    """Start ``repro-serve``; returns (proc, port, output up to the banner)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0",
            "--backend", "thread", "--jobs", "2",
            "--n-samples", "1000",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    match = None
    for _ in range(20):  # skip interpreter noise before the banner
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            break
    assert match, "repro-serve never printed its listening line"
    output = "".join(lines)
    print(output, end="")
    return proc, int(match.group(1)), output


def shutdown(proc):
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    print(proc.stdout.read(), end="")
    assert code == 0, f"repro-serve exited with {code}"
    print("graceful shutdown ok")


def roundtrip(extra_args):
    store_args = ["--shard-dir", tempfile.mkdtemp(prefix="repro-serve-ci-")]
    proc, port, _ = boot([*store_args, *extra_args])
    try:
        print(f"repro-serve up on port {port}")
        client = ServiceClient(f"http://127.0.0.1:{port}")
        assert client.healthz()["status"] == "ok"

        cold = client.plan("lognormal", PARAMS)
        warm = client.plan("lognormal", PARAMS)
        assert cold["cached"] is False, "first plan must be computed"
        assert warm["cached"] is True, "second identical plan must hit the cache"
        assert warm["key"] == cold["key"]

        ev = client.evaluate("lognormal", PARAMS, n_samples=2000, seed=1)
        assert ev["cached"] is True
        lo, hi = ev["evaluation"]["ci95"]
        assert lo <= ev["evaluation"]["expected_cost"] <= hi

        counters = client.metrics()["metrics"]["counters"]
        assert counters["plancache.hits"] >= 2, counters
        print(f"round trip ok (plancache.hits={counters['plancache.hits']})")
    finally:
        shutdown(proc)

    # Reboot on the same directory: the journal replays the one plan.
    proc, port, banner = boot([*store_args, *extra_args])
    try:
        assert "recovered=1" in banner, banner
        client = ServiceClient(f"http://127.0.0.1:{port}")
        again = client.plan("lognormal", PARAMS)
        assert again["cached"] is True, "the journaled plan must survive a restart"
        assert again["key"] == cold["key"]
        print("journal restart ok: recovered=1, plan served cached")
    finally:
        shutdown(proc)
    return 0


def chaos(extra_args):
    env = dict(os.environ)
    env["REPRO_FAULTS"] = CHAOS_PLAN
    proc, port, _ = boot(
        [
            "--mc-task-timeout", "1.0",
            "--mc-task-retries", "2",
            "--breaker-threshold", "2",
            "--breaker-recovery", str(BREAKER_RECOVERY_S),
            *extra_args,
        ],
        env=env,
    )
    try:
        print(f"repro-serve up on port {port} (chaos plan: {CHAOS_PLAN})")
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)

        # Distinct plan requests (different sigma => different cache keys):
        # under the drill every one must still be answered.
        responses = []
        for i in range(6):
            params = {"mu": 3.0, "sigma": 0.4 + 0.05 * i}
            resp = client.plan("lognormal", params, n_samples=2000)
            for field in ("degraded", "evaluator", "attempts"):
                assert field in resp, f"response missing {field!r}: {sorted(resp)}"
            responses.append(resp)
            print(
                f"  plan[{i}] evaluator={resp['evaluator']:<18} "
                f"degraded={resp['degraded']}"
            )

        degraded = [r for r in responses if r["degraded"]]
        assert degraded, "the burst rule must degrade at least one response"
        assert all(
            r["statistics"]["expected_cost"] > 0 for r in responses
        ), "every answer must still be a usable cost estimate"

        counters = client.metrics()["metrics"]["counters"]
        assert counters.get("resilience.faults_injected", 0) > 0, counters
        assert counters.get("resilience.breaker.opened", 0) >= 1, counters
        assert counters.get("resilience.degraded_responses", 0) >= 1, counters
        print(
            f"breaker opened {counters['resilience.breaker.opened']}x, "
            f"{counters['resilience.faults_injected']} faults injected, "
            f"{counters['resilience.degraded_responses']} degraded responses"
        )

        # Let the breaker recover, then trigger its half-open probe.
        time.sleep(BREAKER_RECOVERY_S + 0.5)
        client.plan("lognormal", {"mu": 2.5, "sigma": 0.5}, n_samples=2000)
        counters = client.metrics()["metrics"]["counters"]
        assert counters.get("resilience.breaker.half_opens", 0) >= 1, counters
        print(
            f"breaker half-opened {counters['resilience.breaker.half_opens']}x "
            "after recovery"
        )

        # Keep probing after each recovery window until the MC rung answers
        # again.  The burst rule runs dry after 20 worker attempts; past it,
        # the first chunk to reach its kernel hangs beyond --mc-task-timeout
        # (a pool timeout, then a resubmit) while 35% of worker attempts
        # still fail.  Each failed probe re-opens the breaker.
        recovered = None
        saw_timeout_resubmit = False
        for probe in range(MAX_RECOVERY_PROBES):
            before = counters
            time.sleep(BREAKER_RECOVERY_S + 0.5)
            resp = client.plan(
                "lognormal", {"mu": 2.5, "sigma": 0.6 + 0.05 * probe},
                n_samples=2000,
            )
            counters = client.metrics()["metrics"]["counters"]
            timeouts = counters.get("pool.timeouts", 0)
            if timeouts > before.get("pool.timeouts", 0):
                # The timed-out chunk was resubmitted, not given up on.
                assert counters.get("pool.retries", 0) > before.get(
                    "pool.retries", 0
                ), counters
                saw_timeout_resubmit = True
            print(
                f"  probe[{probe}] evaluator={resp['evaluator']:<18} "
                f"degraded={resp['degraded']} pool.timeouts={timeouts} "
                f"pool.retries={counters.get('pool.retries', 0)}"
            )
            if resp["evaluator"] == "mc":
                recovered = resp
                break
        assert recovered is not None, (
            f"no full-fidelity mc answer after {MAX_RECOVERY_PROBES} probes"
        )
        assert recovered["degraded"] is False
        assert counters.get("pool.timeouts", 0) >= 1, counters
        assert saw_timeout_resubmit, counters
        print(
            f"full fidelity restored: pool.timeouts={counters['pool.timeouts']}, "
            f"pool.retries={counters['pool.retries']}, breaker closed "
            f"{counters.get('resilience.breaker.closes', 0)}x"
        )

        health = client.healthz()
        assert health["resilience"]["faults"]["total_triggered"] > 0
        print("chaos drill ok: every request answered under fault injection")
    finally:
        shutdown(proc)
    return 0


def boot_sharded(workers, shard_dir, extra_args=(), env=None):
    """Boot ``repro-serve --workers N`` (each shard journals its slice)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0",
            "--workers", str(workers),
            "--shard-dir", shard_dir,
            "--backend", "serial",
            "--n-samples", "500",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    match = None
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            break
    assert match, "sharded repro-serve never printed its listening line"
    return proc, int(match.group(1))


def shard_drill(extra_args):
    workers = 3
    shard_dir = tempfile.mkdtemp(prefix="repro-shards-ci-")
    proc, port = boot_sharded(workers, shard_dir, extra_args)
    try:
        print(f"sharded repro-serve up on port {port} ({workers} workers)")
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)

        shards = client.shards()
        assert len(shards) == workers and all(
            s["up"] for s in shards.values()
        ), shards

        # Load distinct keys across the ring, then warm them.
        specs = [{"mu": 3.0, "sigma": 0.40 + 0.02 * i} for i in range(9)]
        cold = [client.plan("lognormal", s) for s in specs]
        assert all(not r["cached"] for r in cold)
        assert all(r["shard"]["failover"] is False for r in cold)
        warm = [client.plan("lognormal", s) for s in specs]
        assert all(r["cached"] for r in warm), "warm pass must hit the shards"
        owners = {i: int(r["shard"]["served_by"]) for i, r in enumerate(cold)}
        assert len(set(owners.values())) > 1, f"keys all on one shard: {owners}"

        # SIGKILL the shard serving spec[0], then keep the load going: the
        # contract is zero failed requests while the key set fails over.
        victim = owners[0]
        victim_pid = int(shards[str(victim)]["pid"])
        os.kill(victim_pid, signal.SIGKILL)
        print(f"  SIGKILLed shard {victim} (pid {victim_pid})")
        answered = 0
        for _ in range(3):
            for i, spec in enumerate(specs):
                resp = client.plan("lognormal", spec)  # must not raise
                assert resp["statistics"]["expected_cost"] > 0
                answered += 1
        print(f"  {answered}/{answered} requests answered during failover")

        counters = client.metrics()["metrics"]["counters"]
        assert counters.get("shard.failovers", 0) >= 1, counters
        assert counters.get("shard.deaths", 0) >= 1 or counters.get(
            "shard.rpc_failures", 0
        ) >= 1, counters

        # Supervisor restarts the worker; the new process replays its
        # journal, so the victim's keys are warm on their primary again.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            current = client.shards().get(str(victim), {})
            if current.get("up") and current.get("pid") not in (None, victim_pid):
                break
            time.sleep(0.3)
        else:
            raise AssertionError(f"shard {victim} never restarted")
        new_pid = client.shards()[str(victim)]["pid"]
        print(f"  shard {victim} restarted (pid {new_pid})")

        victim_keys = [i for i, owner in owners.items() if owner == victim]
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            again = [client.plan("lognormal", specs[i]) for i in victim_keys]
            if all(
                r["cached"] and int(r["shard"]["served_by"]) == victim
                for r in again
            ):
                break
            time.sleep(0.3)
        else:
            raise AssertionError(
                f"shard {victim} did not serve its journaled keys after restart"
            )
        counters = client.metrics()["metrics"]["counters"]
        assert counters.get("shard.restarts", 0) >= 1, counters
        assert counters.get("shard.deaths", 0) >= 1, counters
        print(
            f"  journal replay ok: {len(victim_keys)} key(s) warm on shard "
            f"{victim} (shard.restarts={counters['shard.restarts']}, "
            f"shard.failovers={counters['shard.failovers']})"
        )
        print("shard drill ok: SIGKILL lost zero requests, journal recovered")
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        print(proc.stdout.read(), end="")
        assert code == 0, f"sharded repro-serve exited with {code}"
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--chaos":
        rc = chaos(args[1:])
        if rc == 0:
            rc = shard_drill(args[1:])
        return rc
    return roundtrip(args)


if __name__ == "__main__":
    sys.exit(main())
