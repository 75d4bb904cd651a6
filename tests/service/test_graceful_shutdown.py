"""Boot and graceful shutdown of ``repro-serve --shard-dir`` (one process).

A ``server.request:delay`` fault keeps requests in flight long enough to
SIGTERM the server mid-response.  The contract: every admitted request
completes, new connections are refused, and — because ``--shard-dir``
journals every plan when it is cached — a reboot on the same directory
serves the plan that was in flight at SIGTERM from its journal.  A store
whose base is unreadable must not keep the server from booting: it starts
cold and answers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

REQUEST_BODY = json.dumps(
    {
        "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
        "strategy": "mean_by_mean",
        "n_samples": 200,
    }
).encode()


def post_plan(port, results, index):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/plan",
        data=REQUEST_BODY,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            results[index] = (resp.status, json.loads(resp.read().decode()))
    except Exception as exc:  # recorded for the assertion message
        results[index] = ("error", repr(exc))


def boot(shard_dir, faults=None):
    """Start ``repro-serve --shard-dir``; returns (proc, port, boot lines)."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    env["PYTHONPATH"] = (
        os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0", "--backend", "serial", "--jobs", "1",
            "--n-samples", "200", "--shard-dir", shard_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=ROOT,
    )
    lines = []
    for _ in range(20):
        line = proc.stdout.readline()
        lines.append(line)
        match = re.search(r"http://[\d.]+:(\d+)", line or "")
        if match:
            return proc, int(match.group(1)), "".join(lines)
    proc.kill()
    proc.wait(timeout=10)
    raise AssertionError(f"repro-serve printed no listening line: {lines}")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


@pytest.mark.slow
def test_sigterm_mid_flight_drains_then_reboot_serves_journaled_plan(tmp_path):
    shard_dir = str(tmp_path / "shards")
    # Every admitted request is delayed ~1.2s — the SIGTERM window.
    delay = "server.request:delay:1:seconds=1.2"
    proc, port, banner = boot(shard_dir, faults=delay)
    try:
        assert "recovered=0" in banner, banner

        results = {}
        threads = [
            threading.Thread(target=post_plan, args=(port, results, i))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # requests are now in flight, held by the delay fault
        proc.send_signal(signal.SIGTERM)

        for thread in threads:
            thread.join(timeout=30)
        statuses = {i: results.get(i, ("missing",))[0] for i in range(3)}
        assert all(s == 200 for s in statuses.values()), results

        code = proc.wait(timeout=30)
        assert code == 0, f"repro-serve exited with {code}"

        # The listening socket is closed: new requests are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )
    finally:
        stop(proc)

    key = results[0][1]["key"]
    assert os.path.exists(os.path.join(shard_dir, "shard-0", "journal.jsonl"))

    # Reboot on the same directory: the plan that was in flight at SIGTERM
    # was journaled before its response, so it is served from the store.
    proc, port, banner = boot(shard_dir)
    try:
        assert "recovered=1" in banner, banner
        again = {}
        post_plan(port, again, 0)
        status, body = again[0]
        assert status == 200, again
        assert body["key"] == key
        assert body["cached"] is True
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            assert proc.wait(timeout=30) == 0
        finally:
            stop(proc)


@pytest.mark.slow
def test_unreadable_base_boots_cold_and_answers(tmp_path):
    shard_dir = tmp_path / "shards"
    (shard_dir / "shard-0").mkdir(parents=True)
    (shard_dir / "shard-0" / "base.json").write_text("{not json")

    proc, port, banner = boot(str(shard_dir))
    try:
        assert "recovery skipped" in banner, banner
        assert "recovered=0" in banner, banner
        results = {}
        post_plan(port, results, 0)
        status, body = results[0]
        assert status == 200, results
        assert body["cached"] is False
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            assert proc.wait(timeout=30) == 0
        finally:
            stop(proc)
