"""RS202, one class at a time: a lock-owning object mutated outside its lock.

Lock-order, re-acquisition, blocking and bare-``acquire()`` cases are in
``test_rs202_lock_order.py``.
"""

from tests.analysis.conftest import rule_ids


def test_mutation_outside_lock_fires(lint):
    result = lint(
        {"service/mod.py": """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def clear(self):
                    self._data = {}
        """},
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]
    assert "Cache.clear" in result.findings[0].message


def test_mutation_under_lock_passes(lint):
    result = lint(
        {"observability/mod.py": """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def inc(self):
                    with self._lock:
                        self._n += 1
        """},
        rule="RS202",
    )
    assert result.findings == []


def test_constructor_mutations_are_exempt(lint):
    result = lint(
        {"service/mod.py": """\
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._workers = []
                    self.started = False
        """},
        rule="RS202",
    )
    assert result.findings == []


def test_lock_free_class_is_out_of_scope(lint):
    result = lint(
        {"service/mod.py": """\
            class Plain:
                def set(self, v):
                    self.value = v
        """},
        rule="RS202",
    )
    assert result.findings == []


def test_outside_scoped_packages_passes(lint):
    # core/ objects are single-threaded by design; the rule stays out.
    result = lint(
        {"core/mod.py": """\
            import threading

            class Model:
                def __init__(self):
                    self._lock = threading.Lock()

                def update(self, v):
                    self.value = v
        """},
        rule="RS202",
    )
    assert result.findings == []


def test_tuple_unpacking_target_fires(lint):
    result = lint(
        {"service/mod.py": """\
            import threading

            class Pair:
                def __init__(self):
                    self._lock = threading.Lock()

                def reset(self):
                    self.a, self.b = 0, 0
        """},
        rule="RS202",
    )
    assert rule_ids(result) == ["RS202"]


def test_suppression(lint):
    result = lint(
        {"service/mod.py": """\
            import threading

            class Flag:
                def __init__(self):
                    self._lock = threading.Lock()

                def mark(self):
                    self.done = True  # repro-lint: disable=RS202 -- write-once bool, benign race
        """},
        rule="RS202",
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS202"]
