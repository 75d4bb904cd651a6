"""Generic process supervisor: liveness probes, failover hooks, restarts.

The shard tier (:mod:`repro.service.router`) runs N cache workers as child
processes; any of them can die (OOM, SIGKILL drills) or wedge (alive but
not answering).  The supervisor is the piece that notices, tells the
router to fail the shard's keys over to the surviving ring, restarts the
worker in the background, and tells the router when it is healthy again.

It is deliberately transport- and process-agnostic — a *ward* is three
callables:

* ``is_alive()`` — cheap structural liveness (``proc.poll() is None``);
* ``ping()`` — end-to-end health (an RPC round trip); must return a bool
  and never raise;
* ``restart()`` — replace the ward with a fresh instance; called from the
  supervisor's restart thread, may block while the replacement boots.

State machine per ward, evaluated every ``ping_interval_s``:

* a successful probe resets the failure streak and (re)marks the ward up
  via ``on_up`` — idempotent, so a ward the *router* marked down after a
  transient RPC failure is brought back by the next clean probe without a
  restart;
* a dead process triggers failover immediately; a wedged one after
  ``max_ping_failures`` consecutive failed pings.  Either way ``on_down``
  fires first (requests must start failing over before the restart
  begins), then one restart thread runs ``restart()`` after
  ``restart_backoff_s``;
* ``max_restarts`` bounds the budget (``None`` = unlimited); a ward whose
  budget is exhausted stays down and is reported in :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["SupervisorPolicy", "Ward", "Supervisor"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Probe cadence and restart budget for every supervised ward."""

    #: Seconds between health probes of each ward.
    ping_interval_s: float = 0.5
    #: Consecutive failed pings (with the process alive) before the ward
    #: counts as wedged and is failed over + restarted.
    max_ping_failures: int = 3
    #: Delay before a restart attempt (lets a crash loop breathe).
    restart_backoff_s: float = 0.25
    #: Restart budget per ward; ``None`` = unlimited.
    max_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ping_interval_s <= 0:
            raise ValueError(
                f"ping_interval_s must be positive, got {self.ping_interval_s}"
            )
        if self.max_ping_failures < 1:
            raise ValueError(
                f"max_ping_failures must be >= 1, got {self.max_ping_failures}"
            )
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"restart_backoff_s must be >= 0, got {self.restart_backoff_s}"
            )
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0 (or None), got {self.max_restarts}"
            )


@dataclass
class Ward:
    """One supervised thing plus its runtime bookkeeping."""

    name: str
    is_alive: Callable[[], bool]
    ping: Callable[[], bool]
    restart: Callable[[], None]
    consecutive_failures: int = 0
    restarts: int = 0
    up: bool = True
    restarting: bool = False
    last_error: Optional[str] = None
    _restart_thread: Optional[threading.Thread] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "up": self.up,
            "restarting": self.restarting,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class Supervisor:
    """Monitor thread over a set of :class:`Ward`\\ s."""

    def __init__(
        self,
        policy: Optional[SupervisorPolicy] = None,
        on_down: Optional[Callable[[str], None]] = None,
        on_up: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.policy = policy if policy is not None else SupervisorPolicy()
        self._on_down = on_down
        self._on_up = on_up
        self._sleep = sleep
        self._wards: Dict[str, Ward] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def add(
        self,
        name: str,
        is_alive: Callable[[], bool],
        ping: Callable[[], bool],
        restart: Callable[[], None],
    ) -> Ward:
        ward = Ward(name=name, is_alive=is_alive, ping=ping, restart=restart)
        with self._lock:
            self._wards[name] = ward
        return ward

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        thread = threading.Thread(
            target=self._monitor, name="shard-supervisor", daemon=True
        )
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = thread
        thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        # Join outside the lock: the monitor loop takes it in check_once.
        if thread is not None:
            thread.join(timeout)

    # -- probe loop -----------------------------------------------------
    def check_once(self) -> None:
        """One probe pass over every ward (the loop body; public for tests)."""
        with self._lock:
            wards = list(self._wards.values())
        for ward in wards:
            self._probe(ward)

    def _monitor(self) -> None:
        while not self._stop.is_set():
            self.check_once()
            self._sleep(self.policy.ping_interval_s)

    def _probe(self, ward: Ward) -> None:
        try:
            alive = bool(ward.is_alive())
            healthy = alive and bool(ward.ping())
        except Exception as exc:  # noqa: BLE001 - a probe that raises is a
            # failed probe, never a dead supervisor: the loop must outlive
            # every misbehaving ward callback.
            ward.last_error = f"probe raised: {exc!r}"
            alive = False
            healthy = False
        if healthy:
            ward.consecutive_failures = 0
            # Re-mark up on *every* clean probe (idempotent): a ward the
            # router benched after a transient RPC error comes back without
            # needing a restart cycle.
            ward.up = True
            if self._on_up is not None:
                self._on_up(ward.name)
            return
        ward.consecutive_failures += 1
        wedged = ward.consecutive_failures >= self.policy.max_ping_failures
        if not (alive is False or wedged):
            return
        if ward.up:
            ward.up = False
            if self._on_down is not None:
                self._on_down(ward.name)
        self._maybe_restart(ward)

    def _maybe_restart(self, ward: Ward) -> None:
        if ward.restarting:
            return
        budget = self.policy.max_restarts
        if budget is not None and ward.restarts >= budget:
            return
        ward.restarting = True

        def run() -> None:
            try:
                if self.policy.restart_backoff_s > 0:
                    self._sleep(self.policy.restart_backoff_s)
                ward.restart()
                ward.restarts += 1
                ward.last_error = None
            except Exception as exc:  # noqa: BLE001 - a failed restart is
                # recorded and retried on a later probe; raising here would
                # kill the restart thread silently and strand the ward.
                ward.last_error = f"restart failed: {exc!r}"
                ward.restarts += 1
            finally:
                ward.restarting = False

        thread = threading.Thread(
            target=run, name=f"restart-{ward.name}", daemon=True
        )
        ward._restart_thread = thread
        thread.start()

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            wards = [ward.to_dict() for ward in self._wards.values()]
        return {
            "policy": {
                "ping_interval_s": self.policy.ping_interval_s,
                "max_ping_failures": self.policy.max_ping_failures,
                "restart_backoff_s": self.policy.restart_backoff_s,
                "max_restarts": self.policy.max_restarts,
            },
            "wards": wards,
        }
