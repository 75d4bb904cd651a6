"""Thread-safe LRU plan cache with TTL.

The cache stores JSON-serializable plan payloads keyed by the content hashes
of :mod:`repro.service.keys`.  Three properties matter for the service:

* **bounded** — at most ``maxsize`` entries, least-recently-*used* evicted
  first;
* **fresh** — entries older than ``ttl`` seconds (wall clock, so persisted
  entries age correctly across processes) are treated as misses and
  dropped;
* **observable** — hits, misses, evictions and expirations are counted in
  :mod:`repro.observability.metrics` (``plancache.*``), which is how the
  ``/metrics`` endpoint and the CI round-trip assert cache behavior.

``get_or_compute`` is single-flight per key: concurrent requests for the
same uncached plan serialize on a striped key lock, so an expensive DP runs
once instead of once per waiter (different keys still compute in parallel).

The cache itself is memory-only.  Persistence is the journaled subclass
:class:`~repro.service.shard.ShardStore`: it records every mutation in a
crash-safe append-only journal and replays it on restart, in a shard
worker or in-process behind ``repro-serve --shard-dir``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.observability import metrics
from repro.observability import names
from repro.service.keys import stable_key_hash

__all__ = ["PlanCache"]

#: Number of striped single-flight locks (bounds memory; collisions only
#: serialize two *different* cold keys, never corrupt anything).
_N_STRIPES = 64


class PlanCache:
    """Bounded, thread-safe, TTL-aware LRU mapping ``key -> payload``."""

    def __init__(
        self,
        maxsize: int = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive (or None), got {ttl}")
        self.maxsize = int(maxsize)
        self.ttl = ttl
        self._clock = clock
        self._data: "OrderedDict[str, Tuple[float, dict]]" = OrderedDict()
        self._lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(_N_STRIPES)]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def _expired(self, created_at: float) -> bool:
        return self.ttl is not None and self._clock() - created_at > self.ttl

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the cached payload or ``None`` (counting hit/miss)."""
        with self._lock:
            entry = self._data.get(key)
            if entry is not None and self._expired(entry[0]):
                del self._data[key]
                metrics.inc(names.PLANCACHE_EXPIRATIONS)
                metrics.set_gauge(names.PLANCACHE_SIZE, len(self._data))
                entry = None
            if entry is None:
                metrics.inc(names.PLANCACHE_MISSES)
                return None
            self._data.move_to_end(key)
            metrics.inc(names.PLANCACHE_HITS)
            return entry[1]

    def put(
        self, key: str, payload: dict, created_at: Optional[float] = None
    ) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail past maxsize.

        The journaled :class:`~repro.service.shard.ShardStore` picks and
        journals its own victims before calling this, so replay removes
        exactly what the live cache removed.
        """
        stamp = self._clock() if created_at is None else float(created_at)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (stamp, payload)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                metrics.inc(names.PLANCACHE_EVICTIONS)
            metrics.set_gauge(names.PLANCACHE_SIZE, len(self._data))

    def get_or_compute(
        self, key: str, factory: Callable[[], dict]
    ) -> Tuple[dict, bool]:
        """Return ``(payload, was_cached)``, computing at most once per key.

        The factory runs outside the cache lock (it may take seconds for a
        DP plan) but inside a per-key stripe lock, so concurrent identical
        requests wait for one computation instead of duplicating it.
        """
        payload = self.get(key)
        if payload is not None:
            return payload, True
        # Stripe selection must be process-independent: builtin hash() is
        # randomized per interpreter (PYTHONHASHSEED), which would assign
        # the same key to different stripes in different workers.  The
        # content-hash key already carries uniform bits — use those.
        stripe = self._stripes[stable_key_hash(key) % _N_STRIPES]
        with stripe:
            payload = self.get(key)  # a waiter finds the winner's entry here
            if payload is not None:
                return payload, True
            with metrics.timer(names.PLANCACHE_COMPUTE):
                payload = factory()
            self.put(key, payload)
            return payload, False

    def invalidate(self, key: str) -> bool:
        with self._lock:
            removed = self._data.pop(key, None) is not None
            if removed:
                metrics.set_gauge(names.PLANCACHE_SIZE, len(self._data))
            return removed

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            metrics.set_gauge(names.PLANCACHE_SIZE, 0)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Size/bounds snapshot (counters live in the metrics registry)."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "ttl": self.ttl,
            }

    def entries(self) -> List[Dict[str, object]]:
        """Live (non-expired) entries in LRU order as journal-base dicts.

        Shared by the shard journal's compaction and by tests that compare
        recovered state against live state.
        """
        with self._lock:
            return [
                {"key": key, "created_at": created_at, "payload": payload}
                for key, (created_at, payload) in self._data.items()
                if not self._expired(created_at)
            ]
