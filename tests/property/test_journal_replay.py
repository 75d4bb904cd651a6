"""Property: journal replay reconstructs the shard's in-memory state.

For *any* interleaving of puts (with capacity evictions), invalidates,
TTL expiry, and time advances, a fresh :class:`ShardStore` recovering
from the journal directory must hold entries bit-identical to the live
store's — same keys, same ``created_at`` stamps, same payloads.  A
second property tears the final journal record at an arbitrary byte
offset and checks replay equals an independent model of the committed
prefix.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.shard import ShardStore

KEYS = [f"{i:02d}" * 32 for i in range(8)]  # 64-char keys, like sha256 hex

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(KEYS),
            st.integers(min_value=0, max_value=999),
        ),
        st.tuples(st.just("invalidate"), st.sampled_from(KEYS)),
        st.tuples(st.just("advance"), st.floats(min_value=0.1, max_value=40.0)),
    ),
    min_size=1,
    max_size=40,
)


class Clock:
    def __init__(self):
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now


def _entries_map(store: ShardStore) -> dict:
    return {
        e["key"]: (e["created_at"], e["payload"]) for e in store.entries()
    }


def _apply(store: ShardStore, clock: Clock, ops) -> None:
    for op in ops:
        if op[0] == "put":
            store.put(op[1], {"v": op[2]})
        elif op[0] == "invalidate":
            store.invalidate(op[1])
        else:
            clock.now += op[1]


@settings(max_examples=60, deadline=None)
@given(ops=_ops, maxsize=st.integers(min_value=1, max_value=5))
def test_recovered_state_is_bit_identical(tmp_path_factory, ops, maxsize):
    tmp = tmp_path_factory.mktemp("journal-prop")
    clock = Clock()
    live = ShardStore(
        str(tmp), maxsize=maxsize, ttl=60.0, clock=clock, fsync=False
    )
    _apply(live, clock, ops)
    expected = _entries_map(live)
    live.close()

    recovered = ShardStore(
        str(tmp), maxsize=maxsize, ttl=60.0, clock=clock, fsync=False
    )
    recovered.recover()
    assert _entries_map(recovered) == expected
    recovered.close()


def _model_replay(lines, now, ttl):
    """Independent reimplementation of the replay semantics for checking."""
    state: dict = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            break  # torn tail ends the committed prefix
        op = record.get("op")
        if op == "put":
            state[record["key"]] = (record["created_at"], record["payload"])
        elif op in ("invalidate", "evict"):
            state.pop(record["key"], None)
        elif op == "clear":
            state.clear()
    return {
        k: (ts, payload)
        for k, (ts, payload) in state.items()
        if now - ts <= ttl
    }


@settings(max_examples=40, deadline=None)
@given(ops=_ops, cut_back=st.integers(min_value=0, max_value=200))
def test_torn_tail_recovers_committed_prefix(tmp_path_factory, ops, cut_back):
    tmp = tmp_path_factory.mktemp("journal-torn")
    clock = Clock()
    live = ShardStore(str(tmp), maxsize=4, ttl=60.0, clock=clock, fsync=False)
    _apply(live, clock, ops)
    path = live.journal.journal_path
    live.close()

    with open(path, "rb") as fh:
        raw = fh.read()
    cut = max(0, len(raw) - cut_back)
    torn = raw[:cut]
    with open(path, "wb") as fh:
        fh.write(torn)

    recovered = ShardStore(
        str(tmp), maxsize=4, ttl=60.0, clock=clock, fsync=False
    )
    recovered.recover()
    expected = _model_replay(torn.split(b"\n"), clock.now, 60.0)
    assert _entries_map(recovered) == expected
    recovered.close()
