"""Start and stop the server under test, and measure its memory.

Untraced runs start the real ``repro-serve`` entry point
(``repro.service.server.main``, exactly what the console script calls);
traced runs start ``perfbench/launcher.py``, which boots the same stack
with timing proxies.  Both print the same ``listening on http://host:port``
banner on stdout.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from loadgen import get_json

BANNER_RE = re.compile(r"listening on http://(?P<host>[\d.]+):(?P<port>\d+)")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SERVE_MAIN = "import sys; from repro.service.server import main; sys.exit(main(sys.argv[1:]))"


def server_command(cache_size: int, workers: int, shard_dir: str,
                   spans_out: Optional[str] = None) -> List[str]:
    """``repro-serve`` with default flags except port, cache size and shards;
    with ``spans_out``, the traced launcher instead."""
    if spans_out is None:
        cmd = [sys.executable, "-c", SERVE_MAIN]
    else:
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"), "--spans-out", spans_out]
    cmd += ["--port", "0", "--cache-size", str(cache_size)]
    if workers:
        cmd += ["--workers", str(workers), "--shard-dir", shard_dir]
    return cmd


class Server:
    """A server subprocess; ``start()`` returns once its banner is out."""

    def __init__(self, cmd: List[str], log_path: str):
        self.cmd, self.log_path = cmd, log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env
            )
        found: Dict[str, str] = {}

        def read_banner() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for line in self.proc.stdout:
                match = BANNER_RE.search(line)
                if match:
                    found.update(match.groupdict())
                    return

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        if not found:
            self.stop()
            raise RuntimeError(f"server printed no banner; see {self.log_path}")
        self.host, self.port = found["host"], int(found["port"])
        return self

    def wait_healthy(self, workers: int) -> dict:
        """Poll ``/healthz`` until it is ok with every shard up."""
        limit = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            health = get_json(self.host, self.port, "/healthz")
            shards = health.get("cache", {}).get("shards", {})
            if health.get("status") == "ok" and (
                not workers
                or (len(shards) == workers and all(s.get("up") for s in shards.values()))
            ):
                return health
            if time.monotonic() > limit:
                raise RuntimeError(f"server not healthy after {BOOT_TIMEOUT_S}s: {health}")
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGTERM, wait for the graceful exit (kill past the timeout).

        The server stops its own shard workers; any it left behind (it was
        killed, or crashed) are killed here, and waited for.
        """
        proc = self.proc
        if proc is None:
            return 0
        workers = [(pid, _started(pid)) for pid in process_tree(proc.pid)[1:]]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None
        for pid, started in workers:
            _kill_and_wait(pid, started)
        return code


def _stat(pid: int) -> Optional[List[bytes]]:
    """Fields of ``/proc/<pid>/stat`` after ``comm`` (state is [0]), or None.

    ``comm`` may itself hold spaces or ')', so split after its last ')'.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    return stat[stat.rindex(b")") + 2:].split()


def _started(pid: int) -> Optional[bytes]:
    """Start time of ``pid`` (tells a reused pid from the original)."""
    fields = _stat(pid)
    return fields[19] if fields else None


def _kill_and_wait(pid: int, started: Optional[bytes]) -> None:
    """SIGKILL ``pid`` if it is still the process that started at ``started``,
    then wait until it is gone (a zombie awaiting its reaper counts as gone)."""

    def alive() -> bool:
        fields = _stat(pid)
        return fields is not None and fields[19] == started and fields[0] != b"Z"

    if started is None or not alive():
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    limit = time.monotonic() + STOP_TIMEOUT_S
    while alive() and time.monotonic() < limit:
        time.sleep(0.01)


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants, from ``/proc/*/stat``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is not None:  # else it exited while we looked
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, []))
    return tree


def peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (``VmHWM``) of ``pid``'s process tree, MiB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
