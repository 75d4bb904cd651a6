"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import audit  # noqa: E402
from loadgen import percentile  # noqa: E402
from spans import breakdown, self_times  # noqa: E402
from stack import peak_rss_mb, process_tree  # noqa: E402
from workloads import MIXED_BLOCK, WORKLOADS, schedule, warm_set  # noqa: E402


def _dump(requests):
    return json.dumps([(r.kind, r.path, r.body) for r in requests], sort_keys=True).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_schedules(workload):
    assert _dump(schedule(workload, 7, 400)) == _dump(schedule(workload, 7, 400))
    assert json.dumps(warm_set(workload, 7)) == json.dumps(warm_set(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_longer_schedule_extends_shorter_one(workload):
    assert _dump(schedule(workload, 3, 150)) == _dump(schedule(workload, 3, 400)[:150])


def _keys(workload, seed, n):
    book = audit.KeyBook()
    warm = {book.key(body) for body in warm_set(workload, seed)}
    cold = [book.key(r.body) for r in schedule(workload, seed, n) if r.kind == "cold"]
    return warm, cold


@pytest.mark.parametrize("workload", WORKLOADS)
def test_new_seed_gives_new_keys(workload):
    warm7, cold7 = _keys(workload, 7, 300)
    warm8, cold8 = _keys(workload, 8, 300)
    assert not (warm7 | set(cold7)) & (warm8 | set(cold8))


def test_fresh_keys_are_never_repeated_and_never_warm():
    warm, cold = _keys("mixed", 5, 2000)
    assert len(warm) == len(warm_set("mixed", 5))
    assert len(set(cold)) == len(cold)
    assert not warm & set(cold)


def test_mixed_blocks_have_fixed_composition():
    kinds = [r.kind for r in schedule("mixed", 11, 1000)]
    for start in range(0, 1000, len(MIXED_BLOCK)):
        assert sorted(kinds[start:start + len(MIXED_BLOCK)]) == sorted(MIXED_BLOCK)


def test_sharded_mixed_sends_the_mixed_schedule():
    assert _dump(schedule("mixed", 4, 300)) == _dump(schedule("mixed", 4, 300))
    assert warm_set("mixed", 4) != warm_set("sharded-mixed", 4)  # seeds are per workload


def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)  # 9.5 samples beyond the median
    assert percentile(list(range(20)), 50) == 9.5
    with pytest.raises(ValueError):
        percentile(list(range(199)), 95)
    assert percentile([float(v) for v in range(201)], 95) == 190.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "name": "planner.plan", "rid": 0, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "cache", "rid": 0, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "name": "mc.evaluate", "rid": 0, "start": 2.0, "end": 5.0},
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 3.0}
    spans[2].update(start=3.0, end=5.0)  # one thread: siblings never overlap
    result = breakdown({0: spans, 1: []}, {0: 12.0, 1: 4.0})
    assert result["layers"]["server"] == 2.0
    assert result["covered"] == 12.0  # request 1 left no spans: uncovered
    assert result["wall"] == 16.0


def test_rss_sums_the_whole_process_tree():
    """A child whose grandchild holds ~64 MiB: the sum must include it."""
    script = textwrap.dedent(
        """
        import subprocess, sys, time
        grandchild = subprocess.Popen([sys.executable, "-c",
            "import sys, time; b = bytearray(64 << 20); print(1, flush=True); time.sleep(60)"],
            stdout=subprocess.PIPE)
        grandchild.stdout.readline()
        print(grandchild.pid, flush=True)
        time.sleep(60)
        """
    )
    child = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        grandchild = int(child.stdout.readline())
        tree = process_tree(child.pid)
        assert tree[0] == child.pid and grandchild in tree
        assert peak_rss_mb(child.pid) > peak_rss_mb(grandchild) >= 64
    finally:
        for pid in reversed(process_tree(child.pid)):
            os.kill(pid, 9)
        child.wait(10)
        time.sleep(0.1)
