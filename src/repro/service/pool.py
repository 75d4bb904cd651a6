"""Pluggable execution backends: serial, thread pool, process pool.

Everything embarrassingly parallel in this library — Monte-Carlo chunk
costing (Eq. 13), the verification sweep's (cost model x distribution)
cells, the experiment harness's artifact list — funnels through one small
interface::

    backend = get_backend("process", jobs=4)
    results = backend.map(fn, items)            # ordered, like map()
    results = backend.map(fn, items, timeout=5.0, retries=1)

Design choices:

* ``SerialBackend`` runs tasks inline in submission order; it is what
  every ``jobs <= 1`` request resolves to, preserving the library's
  bit-identical seeded behavior.  The Monte-Carlo kernels normalize their
  ``backend=``/``jobs=`` arguments through :func:`resolve_backend`, which
  maps "serial" to no pool at all.  There is no size-based choice: a
  kernel runs serially or on the pool its caller names.
* ``map`` preserves input order and is strict: a task that still fails
  after ``retries`` immediate resubmissions
  (:meth:`repro.resilience.policies.RetryPolicy.immediate`) raises
  :class:`PoolError` (partial results are never silently dropped).  Every
  backend runs the same attempt → collect → resubmit loop and differs
  only in how an attempt starts and how its result is awaited: the serial
  backend runs an attempt inline when it is collected (so nothing after
  an exhausted task runs), the pools submit every first attempt before
  collecting any result and resubmit retries in index order.
* ``timeout`` is per task attempt.  Thread workers cannot be interrupted
  mid-flight, so a timed-out attempt may keep running in the background
  while its retry proceeds — acceptable for the pure compute tasks used
  here.  Threads remain the backend for work that cannot be pickled
  (closures in the experiment runner and ``repro-verify --jobs``) and for
  fault drills that count triggers in-process.
* every task attempt passes through the ``pool.worker`` fault-injection
  site (:mod:`repro.resilience.faults`), so chaos drills can make any
  fraction of workers raise or hang without touching this module.
* The process backend requires picklable functions and arguments
  (module-level functions; reservation sequences holding extender closures
  are *not* picklable — sample/extend first, then ship arrays).
* ``jobs=0`` means two things, depending on the entry point.
  ``ThreadBackend(0)`` and ``ProcessBackend(0)`` size the pool from
  :func:`effective_cpu_count`, so a restricted CPU affinity (taskset,
  cpusets) is honored; so does :func:`resolve_backend` for a backend
  *name* with ``jobs <= 1``.  :func:`get_backend` with ``jobs=0`` returns
  :class:`SerialBackend`, like any ``jobs <= 1``: that is what
  ``repro-serve``'s default ``--jobs 0`` gets.

Metrics (``pool.*``): tasks, retries, timeouts, failures, and a ``pool.map``
timer, all no-ops unless observability is enabled.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.resilience.policies import RetryPolicy

__all__ = [
    "PoolError",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "resolve_backend",
    "effective_cpu_count",
    "BACKEND_KINDS",
    "chunk_sizes",
]

T = TypeVar("T")
R = TypeVar("R")

BACKEND_KINDS = ("serial", "thread", "process")


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(len(getaffinity(0)), 1)
        except OSError:  # pragma: no cover - platform-specific
            pass
    return os.cpu_count() or 1


class PoolError(RuntimeError):
    """A task exhausted its retries (the original error is chained)."""


def chunk_sizes(n_items: int, n_chunks: int) -> List[int]:
    """Split ``n_items`` into ``n_chunks`` nearly equal positive chunk sizes.

    Returns fewer than ``n_chunks`` entries when there are fewer items than
    chunks; sizes differ by at most one and sum to ``n_items``.
    """
    if n_items < 1:
        raise ValueError(f"need at least one item, got {n_items}")
    if n_chunks < 1:
        raise ValueError(f"need at least one chunk, got {n_chunks}")
    n_chunks = min(n_chunks, n_items)
    base, rem = divmod(n_items, n_chunks)
    return [base + (1 if i < rem else 0) for i in range(n_chunks)]


def _run_task(fn: Callable[[T], R], item: T) -> R:
    """One task attempt, routed through the ``pool.worker`` fault site.

    Module-level so the process backend can pickle it; child processes
    pick chaos drills up through the inherited ``REPRO_FAULTS`` variable.
    """
    faults.fire("pool.worker")  # repro-lint: disable=RS203 -- an attempt only runs inside map's RetryPolicy handler (_start merely wraps or submits it), and every backend.map caller rides the degradation ladder
    return fn(item)


class ExecutionBackend:
    """Ordered fan-out of a function over a sequence of items.

    The base class runs each attempt inline; the pooled backends override
    :meth:`_start` and :meth:`_collect`.  A caller-defined backend may
    override :meth:`map` alone.
    """

    #: Identifier used in metrics and the ``/healthz`` payload.
    kind: str = "backend"

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order."""
        policy = RetryPolicy.immediate(retries)
        items = list(items)
        metrics.inc(names.POOL_TASKS, len(items))
        results: List = [None] * len(items)
        with metrics.timer(names.POOL_MAP):
            attempts = [self._start(fn, item) for item in items]
            for i, item in enumerate(items):
                tries = 1
                while True:
                    try:
                        results[i] = self._collect(attempts[i], timeout)
                        break
                    except Exception as exc:
                        if not policy.should_retry(tries):
                            metrics.inc(names.POOL_FAILURES)
                            self._cancel(attempts[i:])
                            raise PoolError(
                                f"task {i} failed after {tries} attempt(s): "
                                f"{exc!r}"
                            ) from exc
                        metrics.inc(names.POOL_RETRIES)
                        policy.backoff(tries)
                        tries += 1
                        attempts[i] = self._start(fn, item)
        return results

    def _start(self, fn: Callable[[T], R], item: T):
        """Begin one attempt; inline backends defer the call to collection."""
        return functools.partial(_run_task, fn, item)

    def _collect(self, attempt, timeout: Optional[float]):
        """Await one attempt's result (inline: run it; ``timeout`` unused)."""
        return attempt()

    def _cancel(self, attempts) -> None:
        """Drop attempts that will never be collected (inline: nothing ran)."""

    def close(self) -> None:
        """Release worker resources (idempotent; serial backend is a no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


class SerialBackend(ExecutionBackend):
    """Inline execution in submission order (the deterministic default).

    ``timeout`` is ignored: there is no second thread to bound an inline
    call with, and the serial path exists precisely to reproduce the
    unpooled behavior exactly.
    """

    kind = "serial"


class _ExecutorBackend(ExecutionBackend):
    """Attempts run on a concurrent.futures executor."""

    def __init__(self, executor: concurrent.futures.Executor, jobs: int):
        self._executor = executor
        self.jobs = jobs

    def _start(self, fn, item):
        return self._executor.submit(_run_task, fn, item)

    def _collect(self, attempt, timeout):
        try:
            return attempt.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            metrics.inc(names.POOL_TIMEOUTS)
            raise

    def _cancel(self, attempts) -> None:
        for attempt in attempts:
            attempt.cancel()

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


class ThreadBackend(_ExecutorBackend):
    """Thread pool — the right choice for numpy-heavy tasks (GIL released)."""

    kind = "thread"

    def __init__(self, jobs: int = 0):
        jobs = _resolve_jobs(jobs)
        super().__init__(
            concurrent.futures.ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="repro-pool"
            ),
            jobs,
        )


class ProcessBackend(_ExecutorBackend):
    """Process pool — for pure-Python CPU-bound tasks; requires picklability."""

    kind = "process"

    def __init__(self, jobs: int = 0):
        jobs = _resolve_jobs(jobs)
        super().__init__(concurrent.futures.ProcessPoolExecutor(max_workers=jobs), jobs)


def _resolve_jobs(jobs: int) -> int:
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs or effective_cpu_count()


def get_backend(kind: Optional[str] = "serial", jobs: int = 1) -> ExecutionBackend:
    """Instantiate a backend by name.

    ``jobs <= 1`` (or ``kind in (None, "serial")``) always yields the
    serial backend — ``jobs=0`` included: unlike ``ThreadBackend(0)`` and
    ``ProcessBackend(0)``, this never sizes a pool from
    :func:`effective_cpu_count`.
    """
    if kind is not None and kind not in BACKEND_KINDS:
        raise KeyError(f"unknown backend {kind!r}; known: {BACKEND_KINDS}")
    if kind in (None, "serial") or jobs <= 1:
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(jobs)
    return ProcessBackend(jobs)


def resolve_backend(
    backend, jobs: int
) -> Tuple[Optional[ExecutionBackend], bool]:
    """Normalize a kernel's ``backend=``/``jobs=`` arguments to a pool.

    Returns ``(pool, owned)``: ``pool`` is None when the kernel should run
    its serial path, and ``owned`` is True when this call created the pool
    (from a name), so the kernel must close it afterwards — pass a backend
    *object* to reuse a pool across calls.  ``backend`` is None (serial),
    a :data:`BACKEND_KINDS` name (``jobs <= 1`` sizes the pool from
    :func:`effective_cpu_count`), or an :class:`ExecutionBackend`, which
    stays the caller's.  The decision is the returned pool's ``kind``
    (``"serial"`` when None).
    """
    owned = isinstance(backend, str)
    if owned:
        backend = get_backend(backend, jobs if jobs > 1 else effective_cpu_count())
    if backend is None or isinstance(backend, SerialBackend):
        return None, False
    return backend, owned
