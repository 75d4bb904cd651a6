"""Per-layer breakdown of a traced run from its spans.

A span's *self time* is its duration minus the part of it that its child
spans cover.  A request's wall time (as the client measured it) splits
into the server layer -- everything outside the planner call: HTTP,
sockets, the client itself -- plus the self time of every server-side span
of that request, each assigned to the layer it times.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

#: Span name -> layer whose self time it is.
LAYER_OF = {
    "planner.plan": "planner",
    "planner.evaluate": "planner",
    "cache": "router",
    "store.get": "shard.get",
    "rpc.get": "shard.get",
    "store.put": "shard.put",
    "rpc.put": "shard.put",
    "plancache.compute": "strategies",
    "mc.evaluate": "mc",
}
LAYERS = ("server", "planner", "router", "shard.get", "shard.put", "strategies", "mc")


def _covered(start: float, end: float, intervals: Iterable) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """``span id -> self seconds`` (never negative)."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: max(
            0.0,
            span["end"] - span["start"]
            - _covered(span["start"], span["end"], children[span["id"]]),
        )
        for span in spans
    }


def by_request(spans: List[dict]) -> Dict[object, List[dict]]:
    grouped = defaultdict(list)
    for span in spans:
        grouped[span["rid"]].append(span)
    return grouped


def breakdown(spans_of_rid: Dict[object, List[dict]], wall_by_rid: Dict[object, float]) -> dict:
    """Layer self seconds summed over the requests in ``wall_by_rid``.

    Returns ``{"layers": {layer: seconds}, "wall": seconds, "covered":
    seconds, "requests": n}``.  A request without a planner span (its spans
    did not reach the trace) covers none of its wall time.
    """
    layers = dict.fromkeys(LAYERS, 0.0)
    wall_total = covered = 0.0
    for rid, wall in wall_by_rid.items():
        wall_total += wall
        spans = spans_of_rid.get(rid, [])
        roots = [s for s in spans if s["parent"] is None and s["name"].startswith("planner.")]
        if len(roots) != 1:
            continue
        root = roots[0]
        server = max(0.0, wall - (root["end"] - root["start"]))
        layers["server"] += server
        covered += server
        selfs = self_times(spans)
        for span in spans:
            layers[LAYER_OF[span["name"]]] += selfs[span["id"]]
            covered += selfs[span["id"]]
    return {"layers": layers, "wall": wall_total, "covered": covered,
            "requests": len(wall_by_rid)}
