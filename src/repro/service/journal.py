"""Crash-safe append-only journal for one plan-cache shard (format v1).

This is the only persistence path for plans.  A shard — a worker process
of ``repro-serve --workers N``, or the in-process store behind
``repro-serve --shard-dir D`` — persists every mutation as one JSONL
record the moment it happens, so a process death loses no committed plan
and recovery is *replay*: the compacted ``base.json`` plus the journal
suffix reconstructs the exact pre-crash state, and an interrupted append
can lose at most the final partial record — never corrupt prior ones.

Layout (one directory per shard)::

    <dir>/base.json       # compacted snapshot: {"version", "entries": [...]}
    <dir>/journal.jsonl   # one JSON object per line, first line a header

Record grammar (``op`` selects the shape)::

    {"op": "segment", "version": 1, "created_at": <ts>}      # header
    {"op": "put", "key": k, "created_at": <ts>, "payload": {...}}
    {"op": "invalidate", "key": k}
    {"op": "evict", "key": k}       # capacity eviction, same replay effect
    {"op": "clear"}

Durability discipline:

* every ``append`` is written, flushed, and fsynced before it returns —
  a SIGKILL after ``append`` cannot lose the record;
* compaction publishes the new base via temp file + fsync + ``os.replace``
  + directory fsync (:func:`repro.utils.fsio.durable_replace`), and only
  then resets the journal the same way.  A crash between the two steps
  leaves base *and* the old journal: replaying the full journal on top of
  the base it produced is a no-op (the last record per key wins), so
  recovery stays exact;
* replay treats the first unparsable line as the end of the committed
  prefix: a torn final append is dropped and counted
  (``shard.journal_truncated_records``), prior records are untouched.

Fault sites: ``shard.journal.append`` fires before each record write,
``shard.compact`` fires after the new base is staged but before it is
published — exactly the windows where a crash historically corrupted
whole-file snapshot schemes.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.utils.fsio import durable_replace

__all__ = [
    "JOURNAL_VERSION",
    "BASE_FILENAME",
    "JOURNAL_FILENAME",
    "JournalCorrupt",
    "ReplayResult",
    "ShardJournal",
]

JOURNAL_VERSION = 1

BASE_FILENAME = "base.json"
JOURNAL_FILENAME = "journal.jsonl"

#: Ops applied during replay (anything else is skipped for forward compat).
_REPLAY_OPS = ("put", "invalidate", "evict", "clear")


class JournalCorrupt(RuntimeError):
    """The base snapshot is unreadable (journal damage is tolerated)."""


@dataclass
class ReplayResult:
    """Outcome of :meth:`ShardJournal.replay`.

    ``entries`` maps ``key -> (created_at, payload)`` in last-write order;
    TTL filtering is the caller's business (the store applies it when
    loading entries into its cache).
    """

    entries: Dict[str, Tuple[float, dict]] = field(default_factory=dict)
    base_entries: int = 0
    records_applied: int = 0
    truncated_records: int = 0

    @property
    def total_records(self) -> int:
        return self.base_entries + self.records_applied


class ShardJournal:
    """Append-only mutation log with size-triggered compaction."""

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = 1 << 20,
        clock: Callable[[], float] = time.time,
        fsync: bool = True,
    ):
        if max_segment_bytes < 1:
            raise ValueError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        self.directory = os.path.abspath(directory)
        self.max_segment_bytes = int(max_segment_bytes)
        self._clock = clock
        self._fsync = fsync
        self._lock = threading.Lock()
        self._fh: Optional[io.BufferedWriter] = None
        self._segment_bytes = 0
        self._appends = 0
        self._compactions = 0
        os.makedirs(self.directory, exist_ok=True)
        self._open_segment()

    # -- paths ----------------------------------------------------------
    @property
    def base_path(self) -> str:
        return os.path.join(self.directory, BASE_FILENAME)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILENAME)

    # -- segment lifecycle ---------------------------------------------
    def _open_segment(self) -> None:
        """Open (creating if absent) the journal segment for appending.

        Private helper: every post-construction caller (``compact``'s
        failure path) holds ``_lock``; ``__init__`` runs before the object
        escapes its thread.
        """
        fresh = not os.path.exists(self.journal_path)
        fh = open(self.journal_path, "ab")
        self._fh = fh  # repro-lint: disable=RS104 -- caller holds _lock (or __init__)
        if fresh:
            self._write_line(self._segment_header())
        self._segment_bytes = os.path.getsize(self.journal_path)  # repro-lint: disable=RS104 -- caller holds _lock (or __init__)

    def _segment_header(self) -> dict:
        return {
            "op": "segment",
            "version": JOURNAL_VERSION,
            "created_at": self._clock(),
        }

    def _write_line(self, record: dict) -> int:
        """Serialize, write, flush, and fsync one record; returns its size.

        Private helper: callers (``append``, ``_open_segment`` via
        ``__init__``/``compact``) hold ``_lock``.
        """
        assert self._fh is not None
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        self._fh.write(line)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._segment_bytes += len(line)  # repro-lint: disable=RS104 -- caller holds _lock
        return len(line)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- appending ------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one mutation record.

        The ``shard.journal.append`` fault site fires *before* any byte is
        written: an injected failure (or a real one — disk full, closed
        fd) leaves the committed prefix byte-identical, which the torn-
        write tests assert offset by offset.
        """
        if "op" not in record:
            raise ValueError(f"journal record needs an 'op': {record!r}")
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is closed")
            faults.fire("shard.journal.append")  # repro-lint: disable=RS203 -- raising out of ShardStore's mutators is the torn-write contract (the cache is only mutated after the record is durable); the serving path terminates in the shard RPC handler's structured-error guard, and the remaining routes are name-based CHA conflating ShardStore.put/invalidate with unrelated caches'
            written = self._write_line(record)
            self._appends += 1
        metrics.inc(names.SHARD_JOURNAL_APPENDS)
        metrics.inc(names.SHARD_JOURNAL_BYTES, written)

    def should_compact(self) -> bool:
        """Size trigger for :meth:`compact`."""
        with self._lock:
            return self._segment_bytes >= self.max_segment_bytes

    # -- compaction -----------------------------------------------------
    def compact(self, entries: Sequence[Dict[str, object]]) -> None:
        """Fold ``entries`` (the live state) into a new base, reset the log.

        Publish order is what makes this crash-safe: the new base becomes
        durable *first*; only then is the journal replaced by a fresh
        header-only segment.  A crash in between leaves base + old journal,
        and replaying a journal on top of the state it produced is
        idempotent (the final record per key decides).
        """
        doc = {
            "version": JOURNAL_VERSION,
            "compacted_at": self._clock(),
            "entries": list(entries),
        }
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is closed")
            fd, tmp_path = tempfile.mkstemp(
                prefix=BASE_FILENAME + ".", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
                    fh.write("\n")
                    # The fault window: base staged but not yet published.
                    faults.fire("shard.compact")
                    fh.flush()
                    os.fsync(fh.fileno())  # repro-lint: disable=RS202 -- durability barrier: the base must be on disk before the segment is reset, and appends must not interleave with the swap
                durable_replace(tmp_path, self.base_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            # Base is durable; now reset the segment the same way.
            self._fh.close()
            self._fh = None
            header = self._segment_header()
            fd, tmp_path = tempfile.mkstemp(
                prefix=JOURNAL_FILENAME + ".", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as fh_bytes:
                    fh_bytes.write(
                        json.dumps(header, separators=(",", ":")).encode("utf-8")
                        + b"\n"
                    )
                    fh_bytes.flush()
                    os.fsync(fh_bytes.fileno())  # repro-lint: disable=RS202 -- durability barrier: the fresh segment must be on disk before it replaces the old one; appends must not interleave
                durable_replace(tmp_path, self.journal_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                self._open_segment()  # reattach to whatever segment survived
                raise
            self._fh = open(self.journal_path, "ab")  # repro-lint: disable=RS202 -- reattach before releasing the lock, or a concurrent append would race the swap
            self._segment_bytes = os.path.getsize(self.journal_path)
            self._compactions += 1
        metrics.inc(names.SHARD_COMPACTIONS)

    # -- replay ---------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Reconstruct ``key -> (created_at, payload)`` from base + journal.

        The committed prefix of the journal is every line up to the first
        one that fails to parse: under the append discipline above only a
        torn final append can produce such a line, and it is dropped (and
        counted) rather than poisoning recovery.
        """
        result = ReplayResult()
        base = self._load_base()
        if base is not None:
            for entry in base.get("entries", []):
                try:
                    key = str(entry["key"])
                    created_at = float(entry["created_at"])  # type: ignore[index]
                    payload = entry["payload"]  # type: ignore[index]
                except (KeyError, TypeError, ValueError, IndexError):
                    continue
                if not isinstance(payload, dict):
                    continue
                result.entries[key] = (created_at, payload)
                result.base_entries += 1
        for record in self._committed_records(result):
            op = record.get("op")
            if op not in _REPLAY_OPS:
                continue  # header / future record types
            if op == "clear":
                result.entries.clear()
                result.records_applied += 1
                continue
            try:
                key = str(record["key"])
            except (KeyError, TypeError):
                continue
            if op == "put":
                try:
                    created_at = float(record["created_at"])
                    payload = record["payload"]
                except (KeyError, TypeError, ValueError):
                    continue
                if not isinstance(payload, dict):
                    continue
                result.entries[key] = (created_at, payload)
            else:  # invalidate / evict
                result.entries.pop(key, None)
            result.records_applied += 1
        metrics.inc(names.SHARD_JOURNAL_RECORDS_REPLAYED, result.records_applied)
        if result.truncated_records:
            metrics.inc(
                names.SHARD_JOURNAL_TRUNCATED_RECORDS, result.truncated_records
            )
        return result

    def _load_base(self) -> Optional[dict]:
        try:
            with open(self.base_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise JournalCorrupt(f"unreadable base {self.base_path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != JOURNAL_VERSION:
            # A future format: refuse to guess, start empty (the caller
            # logs it; keys silently recompute, never corrupt).
            return None
        return doc

    def _committed_records(self, result: ReplayResult) -> List[dict]:
        """Parse the journal's committed prefix (torn final line dropped)."""
        try:
            with open(self.journal_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return []
        records: List[dict] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # End of the committed prefix: at most the torn final
                # append under the fsync-per-record discipline.
                result.truncated_records += 1
                break
            if isinstance(record, dict):
                records.append(record)
        return records

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "directory": self.directory,
                "segment_bytes": self._segment_bytes,
                "max_segment_bytes": self.max_segment_bytes,
                "appends": self._appends,
                "compactions": self._compactions,
                "has_base": os.path.exists(self.base_path),
            }
