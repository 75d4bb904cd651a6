"""RS202: lock-order cycles, non-reentrant re-acquisition, blocking-under-lock."""

from tests.analysis.conftest import rule_ids


def test_two_lock_cycle_fires(lint):
    """The differential guard: two module locks taken in opposite orders."""
    result = lint(
        {
            "service/locks.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()

                def forward():
                    with _A:
                        with _B:
                            pass

                def backward():
                    with _B:
                        with _A:
                            pass
            """,
        },
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "lock-order cycle" in result.findings[0].message


def test_consistent_order_passes(lint):
    result = lint(
        {
            "service/locks.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()

                def one():
                    with _A:
                        with _B:
                            pass

                def two():
                    with _A:
                        with _B:
                            pass
            """,
        },
        rule="RS202",
    )
    assert result.findings == []


def test_cross_module_cycle_through_call_closure(lint):
    """Neither module alone has a cycle; the call closure (a function
    invoked under lock A transitively acquires B, and vice versa) does."""
    result = lint(
        {
            "service/a.py": """\
                import threading
                from service.b import take_b

                _A = threading.Lock()

                def under_a():
                    with _A:
                        take_b()

                def take_a():
                    with _A:
                        pass
            """,
            "service/b.py": """\
                import threading
                from service.a import take_a

                _B = threading.Lock()

                def take_b():
                    with _B:
                        pass

                def under_b():
                    with _B:
                        take_a()
            """,
        },
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "lock-order cycle" in result.findings[0].message


def test_non_reentrant_self_reacquisition_fires(lint):
    result = lint(
        {
            "service/cache.py": """\
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def put(self, key):
                        with self._lock:
                            self._evict()

                    def _evict(self):
                        with self._lock:
                            pass
            """,
        },
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "non-reentrant" in result.findings[0].message


def test_rlock_self_reacquisition_passes(lint):
    result = lint(
        {
            "service/cache.py": """\
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def put(self, key):
                        with self._lock:
                            self._evict()

                    def _evict(self):
                        with self._lock:
                            pass
            """,
        },
        rule="RS202",
    )
    assert result.findings == []


def test_blocking_sleep_under_lock_fires(lint):
    result = lint(
        {
            "service/io.py": """\
                import threading
                import time

                _L = threading.Lock()

                def slow():
                    with _L:
                        time.sleep(1.0)
            """,
        },
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "blocking call `time.sleep`" in result.findings[0].message


def test_sleep_outside_lock_passes(lint):
    result = lint(
        {
            "service/io.py": """\
                import threading
                import time

                _L = threading.Lock()

                def fine():
                    with _L:
                        pass
                    time.sleep(1.0)
            """,
        },
        rule="RS202",
    )
    assert result.findings == []


def test_path_io_attr_under_lock_fires(lint):
    result = lint(
        {
            "service/snapshot.py": """\
                import threading

                _L = threading.Lock()

                def save(path, payload):
                    with _L:
                        path.write_text(payload)
            """,
        },
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "write_text" in result.findings[0].message


def test_out_of_scope_modules_ignored(lint):
    """RS202 scopes to service/observability/resilience; a two-lock cycle
    in an unrelated subsystem is not its business."""
    result = lint(
        {
            "simulation/locks.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()

                def forward():
                    with _A:
                        with _B:
                            pass

                def backward():
                    with _B:
                        with _A:
                            pass
            """,
        },
        rule="RS202",
    )
    assert result.findings == []


def test_inline_suppression_lands_in_suppressed(lint):
    result = lint(
        {
            "service/io.py": """\
                import threading
                import time

                _L = threading.Lock()

                def slow():
                    with _L:
                        time.sleep(0.01)  # repro-lint: disable=RS202 -- bounded pause, measured harmless
            """,
        },
        rule="RS202",
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS202"]


def test_lock_recognised_by_construction_not_name(lint):
    """Any ``self.<attr>`` bound to ``Lock()``/``RLock()`` is a lock, in the
    ``from threading import Lock`` form too: the mutation outside it and the
    non-reentrant re-acquisition fire, the store under it does not."""
    result = lint(
        {
            "service/pool.py": """\
                from threading import Lock

                class ConnectionPool:
                    def __init__(self):
                        self._idle_guard = Lock()
                        self._idle = []

                    def reset(self):
                        self._idle = []

                    def put(self, conn):
                        with self._idle_guard:
                            self._idle = self._idle + [conn]
                            self._trim()

                    def _trim(self):
                        with self._idle_guard:
                            del self._idle[8:]
            """,
        },
        rule="RS202",
    )
    assert [f.line for f in result.findings] == [9, 14]
    assert "`ConnectionPool.reset` mutates `self._idle`" in result.findings[0].message
    assert "`self._idle_guard`" in result.findings[0].message
    assert "non-reentrant" in result.findings[1].message


def test_semaphores_and_conditions_are_not_locks(lint):
    result = lint(
        {
            "service/gate.py": """\
                import threading

                class Gate:
                    def __init__(self):
                        self._admission = threading.Semaphore(4)
                        self._drain_cv = threading.Condition()

                    def enter(self):
                        self._admission.acquire()
                        self.entered = True
            """,
        },
        rule="RS202",
    )
    assert result.findings == []


def test_bare_acquire_release_pair_fires(lint):
    """``LocalReserver``'s bare ``acquire()``/``release()`` pair with no
    ``try/finally``: an exception in between leaves the lock held, and the
    store it was meant to guard is, as far as ``with`` scoping goes,
    unlocked."""
    result = lint(
        {
            "service/reserver.py": """\
                from threading import Lock

                class LocalReserver:
                    def __init__(self):
                        self.all_queues = {}
                        self.granted = 0
                        self.all_queues_lock = Lock()

                    def request_reservation(self, reservation):
                        self.all_queues_lock.acquire()
                        print("Acquired lock in request reservation")
                        self.all_queues.setdefault(reservation.priority, []).append(reservation)
                        self.granted += 1
                        self.all_queues_lock.release()
                        print("Released lock in request reservation")
            """,
        },
        rule="RS202",
    )
    assert [f.line for f in result.findings] == [10, 13]
    assert "bare `acquire()`" in result.findings[0].message
    assert "`with` block" in result.findings[0].message
    assert "mutates `self.granted`" in result.findings[1].message
