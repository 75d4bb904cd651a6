#!/usr/bin/env python3
"""Cookbook: instrument a planning run with the observability layer.

Everything below is dependency-free and off by default — a production
import of `repro` pays only a bool check.  Here we switch it on, plan a
sequence for a LogNormal workload, and then read back three artifacts:

1. the span tree of the run (where did the wall time go?),
2. the metrics registry (how many recurrence iterations / MC samples?),
3. the spans of one build, kept apart in a ring buffer of their own and
   exported as JSON for offline analysis.

Run:  python examples/profiling_observability.py [--seed N]
"""

import argparse
import json

from repro import CostModel, LogNormal, make_strategy
from repro import observability as obs
from repro.simulation.evaluator import evaluate_strategy

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=42,
                    help="master RNG seed (default reproduces the documented run)")
SEED = parser.parse_args().seed

distribution = LogNormal(mu=3.0, sigma=0.5)
cost_model = CostModel.reservation_only()

# 1. Switch instrumentation on for this process (enable() is the one
#    switch) and start from an empty registry.
obs.enable()
obs.get_registry().reset()

# 2. Do ordinary planning work under a root span.  Strategy builds,
#    Monte-Carlo kernels, and the Eq. (11) recurrence all record
#    themselves; nested spans attach automatically.
with obs.span("cookbook.plan", distribution=distribution.describe()) as root:
    strategy = make_strategy("mean_doubling")
    result = evaluate_strategy(strategy, distribution, cost_model,
                               n_samples=20_000, seed=SEED)

print(f"Expected cost: {result.expected_cost:.4f} "
      f"({result.normalized_cost:.3f}x omniscient)\n")

# 3. Where did the time go?  The root span holds the whole tree.
print("Span tree:")
print(obs.format_span_tree(root))

# 4. What happened, in numbers?  The registry aggregates across the run.
registry = obs.get_registry()
counters = registry.to_dict()["counters"]
print("Counters:")
for name in sorted(counters):
    print(f"  {name:32s} {counters[name]}")

# 5. Per-phase timings as a table (same data the CLI's --trace shows).
from repro.utils.tables import format_table

print()
print(format_table(["timer", "count", "total s", "mean ms", "p95 ms"],
                   list(registry.timer_rows()), title="Timers"))

# 6. Keep one build's spans apart: completed root spans go to the sink,
#    an in-memory ring buffer; swap in a fresh one, then export as JSON.
sink = obs.RingBufferSink(capacity=16)
old_sink = obs.set_sink(sink)
try:
    with obs.span("cookbook.traced_build"):
        make_strategy("mean_by_mean").sequence(distribution, cost_model)
finally:
    obs.set_sink(old_sink)
doc = sink.spans[0].to_dict()
print(f"\nJSON trace ({len(json.dumps(doc))} bytes): root span {doc['name']!r} "
      f"with {len(doc['children'])} child span(s)")

obs.disable()
