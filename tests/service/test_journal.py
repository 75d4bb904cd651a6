"""Crash-safety tests for the shard journal (format v1).

The load-bearing guarantee: recovery = base + committed journal suffix,
and an interrupted append loses at most the final partial record.  The
torn-write test enforces it mechanically — the journal is truncated at
*every byte offset* spanning the final record, and every truncation must
recover exactly the committed prefix, never a corrupted or invented
entry.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.resilience import faults
from repro.service.journal import (
    JOURNAL_VERSION,
    JournalCorrupt,
    ShardJournal,
)
from repro.service.shard import ShardStore


class FakeClock:
    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture(autouse=True)
def _quiet_obs(isolated_obs):
    """Journal metrics go to an isolated registry in every test here."""


def make_journal(tmp_path, clock, **kwargs) -> ShardJournal:
    kwargs.setdefault("fsync", False)  # keep the suite off the disk's back
    return ShardJournal(str(tmp_path / "shard-0"), clock=clock, **kwargs)


def put(journal: ShardJournal, key: str, value: int, ts: float) -> None:
    journal.append(
        {"op": "put", "key": key, "created_at": ts, "payload": {"v": value}}
    )


# ----------------------------------------------------------------------
# Basic replay semantics
# ----------------------------------------------------------------------
def test_replay_applies_put_invalidate_evict_clear(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    put(journal, "a", 1, 10.0)
    put(journal, "b", 2, 11.0)
    journal.append({"op": "invalidate", "key": "a"})
    put(journal, "c", 3, 12.0)
    journal.append({"op": "evict", "key": "b"})
    result = journal.replay()
    assert result.entries == {"c": (12.0, {"v": 3})}
    assert result.truncated_records == 0

    journal.append({"op": "clear"})
    put(journal, "d", 4, 13.0)
    assert journal.replay().entries == {"d": (13.0, {"v": 4})}
    journal.close()


def test_replay_last_write_per_key_wins(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    put(journal, "k", 1, 10.0)
    put(journal, "k", 2, 20.0)
    assert journal.replay().entries == {"k": (20.0, {"v": 2})}
    journal.close()


def test_replay_skips_unknown_ops(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    put(journal, "a", 1, 10.0)
    journal.append({"op": "checkpoint-v9", "whatever": True})  # future record
    result = journal.replay()
    assert result.entries == {"a": (10.0, {"v": 1})}
    journal.close()


def test_replay_survives_process_restart(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    put(journal, "a", 1, 10.0)
    journal.close()
    # A fresh journal object over the same directory appends to the same
    # segment (no new header) and replays everything.
    reopened = make_journal(tmp_path, clock)
    put(reopened, "b", 2, 11.0)
    result = reopened.replay()
    assert result.entries == {"a": (10.0, {"v": 1}), "b": (11.0, {"v": 2})}
    reopened.close()
    with open(reopened.journal_path, "rb") as fh:
        headers = [
            line for line in fh.read().splitlines() if b'"segment"' in line
        ]
    assert len(headers) == 1


# ----------------------------------------------------------------------
# Torn final record: every byte offset
# ----------------------------------------------------------------------
def test_torn_final_record_at_every_byte_offset(tmp_path, clock):
    """Truncation anywhere inside the final record recovers the prefix.

    This is the acceptance-criteria test: after a crash mid-append the
    journal holds the committed records plus a torn tail.  For every
    possible tear point the replay must equal the state of the committed
    prefix — bit-identical entries, no corruption, at most one counted
    truncated record.
    """
    journal = make_journal(tmp_path, clock)
    put(journal, "a", 1, 10.0)
    put(journal, "b", 2, 11.0)
    journal.append({"op": "invalidate", "key": "a"})
    final = {"op": "put", "key": "a", "created_at": 12.0, "payload": {"v": 3}}
    journal.append(final)
    journal.close()

    with open(journal.journal_path, "rb") as fh:
        full = fh.read()
    final_line = json.dumps(final, separators=(",", ":")).encode() + b"\n"
    assert full.endswith(final_line)
    prefix_len = len(full) - len(final_line)
    committed = {"b": (11.0, {"v": 2})}
    complete = {"b": (11.0, {"v": 2}), "a": (12.0, {"v": 3})}

    for cut in range(prefix_len, len(full) + 1):
        with open(journal.journal_path, "wb") as fh:
            fh.write(full[:cut])
        torn = make_journal(tmp_path, clock)
        result = torn.replay()
        torn.close()
        if cut >= len(full) - 1:
            # Full record (the trailing newline is decoration): committed.
            assert result.entries == complete, f"cut={cut}"
            assert result.truncated_records == 0
        elif cut <= prefix_len + 1:
            # Nothing or a sliver of the final line: committed prefix only.
            assert result.entries == committed, f"cut={cut}"
        else:
            assert result.entries == committed, f"cut={cut}"
            assert result.truncated_records == 1, f"cut={cut}"


def test_injected_append_fault_never_corrupts_committed_records(
    tmp_path, clock
):
    """A ``shard.journal.append`` fault leaves the file byte-identical."""
    store = ShardStore(str(tmp_path / "s"), clock=clock, fsync=False)
    store.put("a" * 64, {"v": 1})
    store.put("b" * 64, {"v": 2})
    with open(store.journal.journal_path, "rb") as fh:
        before = fh.read()

    plan = faults.FaultPlan.from_spec("shard.journal.append:error")
    faults.install(plan)
    try:
        with pytest.raises(faults.InjectedFault):
            store.put("c" * 64, {"v": 3})
        with pytest.raises(faults.InjectedFault):
            store.invalidate("a" * 64)
    finally:
        faults.uninstall()

    with open(store.journal.journal_path, "rb") as fh:
        assert fh.read() == before
    # The in-memory cache was not mutated either (journal-first ordering).
    assert store.get("c" * 64) is None
    assert store.get("a" * 64) == {"v": 1}
    # And replay agrees with the live state.
    assert set(store.journal.replay().entries) == {"a" * 64, "b" * 64}
    store.close()


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_compaction_folds_journal_into_base(tmp_path, clock):
    journal = make_journal(tmp_path, clock, max_segment_bytes=1 << 30)
    for i in range(20):
        put(journal, f"k{i}", i, 100.0 + i)
    journal.append({"op": "invalidate", "key": "k0"})
    live = journal.replay().entries
    entries = [
        {"key": k, "created_at": ts, "payload": payload}
        for k, (ts, payload) in live.items()
    ]
    journal.compact(entries)
    assert os.path.exists(journal.base_path)
    # The fresh segment holds only its header line.
    with open(journal.journal_path, "rb") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    assert len(lines) == 1 and b'"segment"' in lines[0]
    assert journal.replay().entries == live
    # And the journal still accepts appends afterwards.
    put(journal, "post", 99, 200.0)
    assert journal.replay().entries["post"] == (200.0, {"v": 99})
    journal.close()


def test_size_trigger_and_store_compaction(tmp_path, clock):
    store = ShardStore(
        str(tmp_path / "s"), clock=clock, fsync=False, max_segment_bytes=512
    )
    for i in range(50):
        store.put(f"{i:064x}", {"v": i, "pad": "x" * 40})
    # Small segments force compactions along the way; state stays exact.
    assert store.journal.stats()["compactions"] >= 1
    fresh = ShardStore(str(tmp_path / "s"), clock=clock, fsync=False)
    fresh.recover()
    assert fresh.entries() == store.entries()
    store.close()
    fresh.close()


def test_injected_compact_fault_preserves_base_and_journal(tmp_path, clock):
    journal = make_journal(tmp_path, clock, max_segment_bytes=1 << 30)
    put(journal, "a", 1, 10.0)
    live = journal.replay().entries
    entries = [
        {"key": k, "created_at": ts, "payload": payload}
        for k, (ts, payload) in live.items()
    ]
    faults.install(faults.FaultPlan.from_spec("shard.compact:error"))
    try:
        with pytest.raises(faults.InjectedFault):
            journal.compact(entries)
    finally:
        faults.uninstall()
    # An interrupted first compaction publishes no base at all.
    assert sorted(os.listdir(journal.directory)) == ["journal.jsonl"]
    journal.compact(entries)  # first base published
    put(journal, "b", 2, 11.0)
    with open(journal.base_path, "rb") as fh:
        base_before = fh.read()
    with open(journal.journal_path, "rb") as fh:
        journal_before = fh.read()

    faults.install(faults.FaultPlan.from_spec("shard.compact:error"))
    try:
        with pytest.raises(faults.InjectedFault):
            journal.compact(entries)
    finally:
        faults.uninstall()

    with open(journal.base_path, "rb") as fh:
        assert fh.read() == base_before
    with open(journal.journal_path, "rb") as fh:
        assert fh.read() == journal_before
    # The aborted compaction left an appendable journal and exact replay.
    put(journal, "c", 3, 12.0)
    result = journal.replay()
    assert result.entries == {
        "a": (10.0, {"v": 1}),
        "b": (11.0, {"v": 2}),
        "c": (12.0, {"v": 3}),
    }
    assert not [
        name
        for name in os.listdir(journal.directory)
        if name.endswith(".tmp")
    ], "aborted compaction must not leak temp files"
    journal.close()


# ----------------------------------------------------------------------
# Base handling
# ----------------------------------------------------------------------
def test_version_mismatch_base_is_ignored(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    put(journal, "a", 1, 10.0)
    with open(journal.base_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"version": JOURNAL_VERSION + 1, "entries": [{"key": "zz"}]}, fh
        )
    result = journal.replay()
    assert result.entries == {"a": (10.0, {"v": 1})}
    assert result.base_entries == 0
    journal.close()


def test_malformed_base_entries_are_skipped(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    with open(journal.base_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "version": JOURNAL_VERSION,
                "entries": [
                    {"key": "ok", "created_at": 1.0, "payload": {"v": 1}},
                    {"key": "no-payload", "created_at": 1.0},
                    {"key": "bad-stamp", "created_at": "x", "payload": {}},
                    {"key": "non-dict", "created_at": 1.0, "payload": [1]},
                ],
            },
            fh,
        )
    result = journal.replay()
    assert result.entries == {"ok": (1.0, {"v": 1})}
    assert result.base_entries == 1
    journal.close()


def test_unreadable_base_raises_journal_corrupt(tmp_path, clock):
    journal = make_journal(tmp_path, clock)
    with open(journal.base_path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(JournalCorrupt):
        journal.replay()
    journal.close()


def test_store_recover_skips_corrupt_base_gracefully(tmp_path, clock):
    # The worker entry point treats JournalCorrupt as "cold shard beats no
    # shard"; the store-level recover surfaces it for that decision.
    store = ShardStore(str(tmp_path / "s"), clock=clock, fsync=False)
    store.put("a" * 64, {"v": 1})
    with open(store.journal.base_path, "w", encoding="utf-8") as fh:
        fh.write("garbage")
    with pytest.raises(JournalCorrupt):
        store.recover()
    store.close()


# ----------------------------------------------------------------------
# The store as a PlanCache
# ----------------------------------------------------------------------
def test_entry_past_its_ttl_at_restart_is_not_served(tmp_path, clock):
    """TTLs keep aging across a restart: replay drops what has expired."""
    store = ShardStore(str(tmp_path / "s"), ttl=10.0, clock=clock, fsync=False)
    store.put("old" * 20, {"v": 1})
    clock.advance(6.0)
    store.put("new" * 20, {"v": 2})
    store.close()

    clock.advance(5.0)  # "old" is now 11 s old, "new" 5 s
    restarted = ShardStore(
        str(tmp_path / "s"), ttl=10.0, clock=clock, fsync=False
    )
    assert restarted.recover() == 1
    assert restarted.get("old" * 20) is None
    assert restarted.get("new" * 20) == {"v": 2}
    restarted.close()


def test_put_journals_evictions_first_and_recover_does_not_rejournal(
    tmp_path, clock
):
    store = ShardStore(str(tmp_path / "s"), maxsize=2, clock=clock, fsync=False)
    assert store.put("a" * 64, {"v": 1}) is None
    store.put("b" * 64, {"v": 2})
    store.put("c" * 64, {"v": 3})
    assert store.keys() == ["b" * 64, "c" * 64]
    store.close()
    with open(store.journal.journal_path, "rb") as fh:
        ops = [json.loads(line)["op"] for line in fh.read().splitlines()]
    # The eviction is durable before the put that needed the room, so no
    # committed prefix ever holds more than maxsize entries.
    assert ops == ["segment", "put", "put", "evict", "put"]

    restarted = ShardStore(
        str(tmp_path / "s"), maxsize=2, clock=clock, fsync=False
    )
    with open(restarted.journal.journal_path, "rb") as fh:
        before = fh.read()
    assert restarted.recover() == 2
    with open(restarted.journal.journal_path, "rb") as fh:
        assert fh.read() == before  # replay appended nothing
    assert restarted.journal.stats()["appends"] == 0
    assert restarted.keys() == ["b" * 64, "c" * 64]
    restarted.close()


def test_inherited_get_or_compute_journals_one_put(tmp_path, clock):
    store = ShardStore(str(tmp_path / "s"), clock=clock, fsync=False)
    calls = []

    def factory():
        calls.append(1)
        return {"v": 42}

    assert store.get_or_compute("k" * 64, factory) == ({"v": 42}, False)
    assert store.get_or_compute("k" * 64, factory) == ({"v": 42}, True)
    assert calls == [1]
    assert store.journal.stats()["appends"] == 1
    assert store.journal.replay().entries["k" * 64][1] == {"v": 42}
    store.close()


def test_get_never_waits_on_a_journal_write(tmp_path, clock):
    """Reads take only the cache's data lock, never the writer locks."""
    store = ShardStore(str(tmp_path / "s"), clock=clock, fsync=False)
    store.put("a" * 64, {"v": 1})
    seen = []
    # Hold the writer lock and the journal lock, as an fsync'd put does.
    with store._write_lock, store.journal._lock:
        reader = threading.Thread(target=lambda: seen.append(store.get("a" * 64)))
        reader.start()
        reader.join(timeout=5.0)
    assert seen == [{"v": 1}]
    store.close()
