"""Boot and graceful shutdown of ``repro-serve --shard-dir`` (one process).

A ``server.request`` delay fault keeps requests in flight long enough to
SIGTERM the server mid-response.  The contract: every admitted request
completes, new connections are refused, and — because ``--shard-dir``
journals every plan when it is cached — a reboot on the same directory
serves the plan that was in flight at SIGTERM from its journal.  A store
whose base is unreadable must not keep the server from booting: it starts
cold and answers.  A malformed ``REPRO_FAULTS`` plan, or a default
``--seed``/``--n-samples`` the planner would refuse, on the other hand,
stops the boot before the port is bound.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
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


def _serve_command(shard_dir, faults=None):
    """``repro-serve --shard-dir`` argv and environment for a boot."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    env["PYTHONPATH"] = (
        os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    argv = [
        sys.executable, "-m", "repro.service.server",
        "--port", "0", "--backend", "serial", "--jobs", "1",
        "--n-samples", "200", "--shard-dir", shard_dir,
    ]
    return argv, env


def boot(shard_dir, faults=None):
    """Start ``repro-serve --shard-dir``; returns (proc, port, boot lines)."""
    argv, env = _serve_command(shard_dir, faults)
    proc = subprocess.Popen(
        argv,
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
    delay = json.dumps({"faults": [
        {"site": "server.request", "mode": "delay", "seconds": 1.2}
    ]})
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


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec, named",
    [
        ("pool.worker", "pool.worker"),  # neither JSON nor a file
        ("seed=7;pool.worker:error:0.3", "REPRO_FAULTS"),  # no compact form
        ("{not json", "REPRO_FAULTS"),
        ('{"seed": null}', "REPRO_FAULTS"),  # TypeError inside, not a crash
        ("missing-drill.json", "missing-drill.json"),  # OSError, not ValueError
    ],
)
def test_malformed_faults_env_stops_the_boot(tmp_path, spec, named):
    # Parsed lazily, a bad spec would fail every admitted POST with a 500.
    argv, env = _serve_command(str(tmp_path / "shards"), faults=spec)
    done = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert done.returncode == 2, (done.stdout, done.stderr)
    assert "REPRO_FAULTS" in done.stderr and named in done.stderr
    assert "listening" not in done.stdout
    assert "Fault plan installed" not in done.stderr
    assert not (tmp_path / "shards").exists()  # nothing was opened


@pytest.mark.parametrize(
    "flag, value, field",
    [("--seed", "-1", "'seed'"), ("--n-samples", "0", "'n_samples'")],
)
def test_bad_default_stops_the_boot(tmp_path, capsys, flag, value, field):
    # Booted, it would answer every request without its own value with 400.
    from repro.service.server import main

    shard_dir = tmp_path / "shards"
    argv = ["--port", "0", "--workers", "2", "--shard-dir", str(shard_dir),
            flag, value]
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    assert not shard_dir.exists()  # no shard spawned, no store opened


@pytest.fixture
def spawned(monkeypatch):
    """Every shard worker a boot spawns; any left alive is killed after."""
    from repro.service import router

    procs = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        proc = popen(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(router.subprocess, "Popen", recording)
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "-1"),
        ("--cache-size", "0"),
        ("--max-inflight", "-1"),
        ("--ttl", "0"),
        ("--shard-journal-bytes", "0"),
    ],
)
def test_bad_numeric_flag_stops_the_boot(
    tmp_path, capsys, monkeypatch, spawned, flag, value
):
    from repro.service import server

    def no_bind(self):
        raise AssertionError("bound the HTTP port")

    monkeypatch.setattr(server.PlanServer, "server_bind", no_bind)
    shard_dir = tmp_path / "shards"
    argv = ["--port", "0", "--workers", "2", "--shard-dir", str(shard_dir),
            flag, value]
    assert server.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and flag in err[0], err
    assert spawned == [] and not shard_dir.exists()


def test_busy_port_spawns_no_worker(tmp_path, capsys, isolated_obs, spawned):
    from repro.service.server import main

    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        argv = ["--port", str(port), "--workers", "1",
                "--shard-dir", str(tmp_path / "shards")]
        assert main(argv) == 1
    assert "cannot bind" in capsys.readouterr().err
    assert [proc for proc in spawned if proc.poll() is None] == []


def test_boot_failure_after_the_spawn_stops_the_fleet(
    tmp_path, monkeypatch, isolated_obs, spawned
):
    from repro.service.router import ShardFleet
    from repro.service.server import main

    def broken(self):
        raise RuntimeError("boot broke after the spawn")

    monkeypatch.setattr(ShardFleet, "pids", broken)
    argv = ["--port", "0", "--workers", "1", "--shard-dir", str(tmp_path / "s")]
    with pytest.raises(RuntimeError, match="after the spawn"):
        main(argv)
    assert len(spawned) == 1
    assert spawned[0].poll() is not None


@pytest.mark.slow
def test_valid_faults_env_prints_the_banner(tmp_path):
    spec = json.dumps({"seed": 3, "faults": [
        {"site": "server.request", "mode": "delay", "seconds": 0.01}
    ]})
    proc, port, banner = boot(str(tmp_path / "shards"), faults=spec)
    try:
        assert "Fault plan installed" in banner, banner
        results = {}
        post_plan(port, results, 0)
        assert results[0][0] == 200, results
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            assert proc.wait(timeout=30) == 0
        finally:
            stop(proc)

