"""ShardFleet's probe loop: failover, restart and shutdown of shard workers.

Most cases run a fleet whose workers are fakes (a scriptable process and
client per spawn) and drive one probe pass at a time with ``check_once``.
The last case runs real ``repro.service.shard`` workers: a restart that is
in flight when the fleet shuts down must not leave its worker running.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.observability import metrics
from repro.service import router
from repro.service.router import MAX_PING_FAILURES, ShardFleet


class FakeProc:
    """Stands in for the worker's ``subprocess.Popen``."""

    stdout = None

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode = None

    def poll(self):
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            self.returncode = -signal.SIGKILL

    terminate = kill

    def wait(self, timeout=None):
        return self.returncode


class FakeClient:
    """Stands in for the worker's ``ShardClient``: a scriptable ping."""

    def __init__(self):
        self.healthy = True
        self.ping_error: Exception | None = None
        self.pings = 0

    def ping(self) -> bool:
        self.pings += 1
        if self.ping_error is not None:
            raise self.ping_error
        return self.healthy

    def close(self) -> None:
        pass


class FakeFleet(ShardFleet):
    """A fleet of fake workers; the tests call ``check_once`` themselves
    unless ``background`` is set."""

    background = False

    def __init__(self, data_dir, n_shards: int = 1):
        super().__init__(n_shards, str(data_dir))
        self.spawned: list = []
        self.spawn_errors: list = []
        self.spawn_gate: threading.Event | None = None
        self.spawn_calls = 0

    def _spawn(self, shard_id):
        self.spawn_calls += 1
        if self.spawn_gate is not None:
            self.spawn_gate.wait(5.0)
        if self.spawn_errors:
            raise self.spawn_errors.pop(0)
        worker = (FakeProc(pid=len(self.spawned) + 1), FakeClient())
        self.spawned.append(worker)
        return worker

    def _probe_loop(self) -> None:
        if self.background:
            super()._probe_loop()

    def worker(self):
        """The (process, client) of the newest spawn."""
        return self.spawned[-1]


def counter(name: str) -> float:
    return metrics.get_registry().counter(name).value


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def fleet(tmp_path, monkeypatch, enabled_obs):
    monkeypatch.setattr(router, "RESTART_BACKOFF_S", 0.0)
    fleet = FakeFleet(tmp_path)
    fleet.start()
    yield fleet
    fleet.shutdown()


def restarted(fleet, n: int) -> bool:
    """Wait until ``n`` restarts have completed (the new client is live)."""
    return wait_until(lambda: counter("shard.restarts") == n)


def test_healthy_shard_stays_up_and_every_clean_probe_marks_it_up(fleet):
    fleet.check_once()
    fleet.cache.mark_down(0)  # the router benched it after a failed RPC
    fleet.check_once()
    assert fleet.cache.down_shards() == []
    assert counter("shard.deaths") == 0
    assert len(fleet.spawned) == 1  # no restart


def test_dead_worker_goes_down_at_once_then_restarts(fleet):
    proc, _ = fleet.worker()
    proc.kill()
    fleet.check_once()  # the very first failed probe
    assert fleet.cache.down_shards() == [0]
    assert counter("shard.deaths") == 1
    assert restarted(fleet, 1)
    assert fleet.pids() == {0: 2}
    fleet.check_once()
    assert fleet.cache.down_shards() == []


def test_wedged_worker_goes_down_after_max_ping_failures(fleet):
    _, client = fleet.worker()
    client.healthy = False
    for _ in range(MAX_PING_FAILURES - 1):
        fleet.check_once()
    assert fleet.cache.down_shards() == []
    assert counter("shard.deaths") == 0
    fleet.check_once()
    assert fleet.cache.down_shards() == [0]
    assert counter("shard.deaths") == 1
    assert restarted(fleet, 1)
    assert fleet.spawned[0][0].returncode is not None  # the wedged one was killed


def test_clean_probe_resets_the_failure_streak(fleet):
    _, client = fleet.worker()
    for _ in range(3):
        client.healthy = False
        for _ in range(MAX_PING_FAILURES - 1):
            fleet.check_once()
        client.healthy = True
        fleet.check_once()
    assert counter("shard.deaths") == 0
    assert len(fleet.spawned) == 1


def test_probe_that_raises_is_a_failed_probe(fleet):
    _, client = fleet.worker()
    client.ping_error = RuntimeError("probe exploded")
    fleet.check_once()  # a raising probe reads as a dead worker
    assert fleet.cache.down_shards() == [0]
    assert restarted(fleet, 1)


def test_only_one_restart_in_flight(fleet):
    fleet.spawn_gate = threading.Event()
    proc, _ = fleet.worker()
    proc.kill()
    for _ in range(3):
        fleet.check_once()
    fleet.spawn_gate.set()
    assert restarted(fleet, 1)
    assert len(fleet.spawned) == 2
    assert counter("shard.deaths") == 1


def test_failed_restart_is_reported_and_retried(fleet, capsys):
    fleet.spawn_errors = [RuntimeError("spawn keeps failing")] * 2
    proc, _ = fleet.worker()
    proc.kill()
    for _ in range(3):  # each probe finds the shard dead: one restart each
        fleet.check_once()
        assert wait_until(lambda: not fleet._restarting)
    assert counter("shard.restarts") == 1  # only the one that succeeded
    assert counter("shard.deaths") == 1
    err = capsys.readouterr().err
    assert err.count("restart of shard 0 failed") == 2
    assert "spawn keeps failing" in err
    fleet.check_once()
    assert fleet.cache.down_shards() == []


def test_router_benched_shard_still_counts_one_death(fleet):
    fleet.spawn_gate = threading.Event()  # hold the restart
    proc, _ = fleet.worker()
    fleet.cache.mark_down(0)  # a failed RPC benched it first
    proc.kill()
    fleet.check_once()
    fleet.check_once()
    assert counter("shard.deaths") == 1
    fleet.spawn_gate.set()
    assert restarted(fleet, 1)


def test_probe_loop_runs_until_shutdown(tmp_path, monkeypatch, enabled_obs):
    monkeypatch.setattr(router, "PING_INTERVAL_S", 0.01)
    fleet = FakeFleet(tmp_path)
    fleet.background = True
    fleet.start()
    _, client = fleet.worker()
    assert wait_until(lambda: client.pings >= 3)
    fleet.shutdown()
    pings = client.pings
    time.sleep(0.05)
    assert client.pings == pings  # no probes after shutdown


def test_restarts_are_unlimited_and_each_death_counts_once(fleet):
    for n in range(1, 6):
        proc, _ = fleet.worker()
        proc.kill()
        fleet.check_once()
        fleet.check_once()  # still down, or already back: never a 2nd death
        assert restarted(fleet, n)
        fleet.check_once()
        assert fleet.cache.down_shards() == []
    assert counter("shard.deaths") == 5
    assert len(fleet.spawned) == 6
    assert fleet.cache.client(0) is fleet.worker()[1]


def test_only_the_failed_shard_fails_over(tmp_path, monkeypatch, enabled_obs):
    monkeypatch.setattr(router, "RESTART_BACKOFF_S", 0.0)
    fleet = FakeFleet(tmp_path, n_shards=3)
    fleet.start()
    try:
        clients = [fleet.cache.client(sid) for sid in range(3)]
        fleet.spawned[1][0].kill()
        fleet.check_once()
        assert fleet.cache.down_shards() == [1]
        assert metrics.get_registry().gauge("shard.up").value == 2
        assert restarted(fleet, 1)
        fleet.check_once()
        assert fleet.cache.down_shards() == []
        assert metrics.get_registry().gauge("shard.up").value == 3
        assert fleet.pids() == {0: 1, 1: 4, 2: 3}
        assert fleet.cache.client(1) is fleet.spawned[3][1]
        assert fleet.cache.client(0) is clients[0]
        assert fleet.cache.client(2) is clients[2]
        assert counter("shard.deaths") == 1
    finally:
        fleet.shutdown()


def test_ping_runs_outside_the_fleet_lock(fleet):
    _, client = fleet.worker()
    held = []

    def ping() -> bool:
        held.append(fleet._lock.locked())
        return True

    client.ping = ping
    fleet.check_once()
    assert held == [False]


def test_shutdown_stops_every_worker(tmp_path, enabled_obs):
    fleet = FakeFleet(tmp_path, n_shards=3)
    fleet.start()
    assert fleet.pids() == {0: 1, 1: 2, 2: 3}
    fleet.shutdown()
    assert fleet.pids() == {}
    assert all(proc.returncode is not None for proc, _ in fleet.spawned)


def test_start_failure_stops_the_workers_that_booted(tmp_path, enabled_obs):
    fleet = FakeFleet(tmp_path, n_shards=3)
    spawn = fleet._spawn

    def spawn_until_shard_2(shard_id):
        if shard_id == 2:
            raise RuntimeError("no banner")
        return spawn(shard_id)

    fleet._spawn = spawn_until_shard_2
    with pytest.raises(RuntimeError, match="no banner"):
        fleet.start()
    assert len(fleet.spawned) == 2
    assert all(proc.returncode is not None for proc, _ in fleet.spawned)
    assert fleet.pids() == {}


def test_worker_dead_before_its_banner_reports_its_exit_status(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.exit(3)"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        with pytest.raises(RuntimeError, match=r"exited before .*\(exit=3\)"):
            ShardFleet(1, str(tmp_path))._read_banner(proc)
    finally:
        proc.wait()
        proc.stdout.close()


def test_restart_still_in_backoff_at_shutdown_boots_nothing(fleet, monkeypatch):
    monkeypatch.setattr(router, "RESTART_BACKOFF_S", 30.0)
    proc, _ = fleet.worker()
    proc.kill()
    fleet.check_once()
    assert fleet._restarting
    began = time.monotonic()
    fleet.shutdown()
    assert time.monotonic() - began < 5.0  # the backoff wait ends at once
    assert not fleet._restarting
    assert fleet.spawn_calls == 1
    assert counter("shard.restarts") == 0


@pytest.mark.parametrize("timeout", [5.0, 0.0])
def test_worker_booted_during_shutdown_is_stopped(fleet, timeout):
    """Whether shutdown waits for the restart (5 s) or gives up on it at
    once (0 s), the worker that restart boots is stopped, never served."""
    fleet.spawn_gate = threading.Event()
    proc, old_client = fleet.worker()
    proc.kill()
    fleet.check_once()
    assert wait_until(lambda: fleet.spawn_calls == 2)  # the restart is booting
    threading.Timer(0.2, fleet.spawn_gate.set).start()
    fleet.shutdown(timeout)
    assert wait_until(
        lambda: len(fleet.spawned) == 2 and fleet.spawned[1][0].returncode is not None
    )
    assert wait_until(lambda: not fleet._restarting)
    assert fleet.pids() == {}
    assert fleet.cache.client(0) is old_client
    assert counter("shard.restarts") == 0


# ----------------------------------------------------------------------
# Real workers: a restart in flight at shutdown
# ----------------------------------------------------------------------
def shard_workers(data_dir: str) -> list:
    """PIDs of running ``repro.service.shard`` processes under ``data_dir``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                args = f.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        if "repro.service.shard" in args and any(
            a.startswith(data_dir) for a in args
        ):
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists workers via /proc")
@pytest.mark.parametrize("phase", ["backoff", "booting"])
def test_shutdown_reaps_a_restart_in_flight(tmp_path, phase, isolated_obs):
    fleet = ShardFleet(1, str(tmp_path / "shards"))
    cache = fleet.start()
    try:
        os.kill(fleet.pids()[0], signal.SIGKILL)
        # The probe loop benches the shard and starts the restart, which
        # first waits out RESTART_BACKOFF_S and then boots a new worker.
        assert wait_until(lambda: cache.down_shards() == [0])
        if phase == "booting":
            time.sleep(router.RESTART_BACKOFF_S + 0.1)
        fleet.shutdown()
        # A leaked restart would show its worker within a second or so.
        assert not wait_until(lambda: shard_workers(fleet.data_dir), timeout=1.5)
    finally:
        for pid in shard_workers(fleet.data_dir):
            os.kill(pid, signal.SIGKILL)
