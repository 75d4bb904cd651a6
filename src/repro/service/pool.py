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
  after its retry budget raises :class:`PoolError` (partial results are
  never silently dropped).  Retries are governed by a
  :class:`repro.resilience.policies.RetryPolicy` — the plain ``retries=N``
  form maps to ``RetryPolicy.immediate(N)``, the historical zero-backoff
  behavior; pass ``retry_policy=`` for jittered exponential backoff, and
  ``deadline=`` to bound the whole map under one wall-clock budget.
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

import abc
import concurrent.futures
import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.resilience.policies import Deadline, DeadlineExceeded, RetryPolicy

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
    """A task exhausted its retry budget (the original error is chained)."""


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
    faults.fire("pool.worker")  # repro-lint: disable=RS203 -- every backend.map caller rides RetryPolicy + the degradation ladder; the flagged routes go through name-based CHA conflating PlanCache.get_or_compute with the sharded tier's, whose factory runs under the same ladder
    return fn(item)


def _resolve_policy(retries: int, retry_policy: Optional[RetryPolicy]) -> RetryPolicy:
    if retry_policy is not None:
        return retry_policy
    return RetryPolicy.immediate(retries)


class ExecutionBackend(abc.ABC):
    """Ordered fan-out of a function over a sequence of items."""

    #: Identifier used in metrics and the ``/healthz`` payload.
    kind: str = "backend"

    @abc.abstractmethod
    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order."""

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

    def map(self, fn, items, timeout=None, retries=0, retry_policy=None,
            deadline=None):
        policy = _resolve_policy(retries, retry_policy)
        results = []
        with metrics.timer(names.POOL_MAP):
            for item in items:
                metrics.inc(names.POOL_TASKS)
                attempt = 0
                while True:
                    if deadline is not None:
                        deadline.require("pool.map")
                    attempt += 1
                    try:
                        results.append(_run_task(fn, item))
                        break
                    except Exception as exc:
                        if not policy.should_retry(attempt, exc, deadline):
                            metrics.inc(names.POOL_FAILURES)
                            raise PoolError(
                                f"task failed after {attempt} attempt(s): {exc}"
                            ) from exc
                        metrics.inc(names.POOL_RETRIES)
                        policy.backoff(attempt, deadline)
        return results


class _ExecutorBackend(ExecutionBackend):
    """Shared submit/collect loop for the concurrent.futures backends."""

    def __init__(self, executor: concurrent.futures.Executor, jobs: int):
        self._executor = executor
        self.jobs = jobs

    def map(self, fn, items, timeout=None, retries=0, retry_policy=None,
            deadline=None):
        policy = _resolve_policy(retries, retry_policy)
        items = list(items)
        futures = [self._executor.submit(_run_task, fn, item) for item in items]
        metrics.inc(names.POOL_TASKS, len(items))
        results: List = [None] * len(items)
        with metrics.timer(names.POOL_MAP):
            for i, future in enumerate(futures):
                attempts = 0
                while True:
                    wait = timeout if deadline is None else deadline.bound(timeout)
                    attempts += 1
                    try:
                        results[i] = future.result(timeout=wait)
                        break
                    except Exception as exc:
                        if isinstance(exc, concurrent.futures.TimeoutError):
                            metrics.inc(names.POOL_TIMEOUTS)
                            if deadline is not None and deadline.expired():
                                exc = DeadlineExceeded(
                                    f"pool.map deadline expired waiting on task {i}"
                                )
                        if not policy.should_retry(attempts, exc, deadline):
                            metrics.inc(names.POOL_FAILURES)
                            for pending in futures[i:]:
                                pending.cancel()
                            raise PoolError(
                                f"task {i} failed after {attempts} attempt(s): "
                                f"{exc!r}"
                            ) from exc
                        metrics.inc(names.POOL_RETRIES)
                        policy.backoff(attempts, deadline)
                        future = self._executor.submit(_run_task, fn, items[i])
        return results

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
