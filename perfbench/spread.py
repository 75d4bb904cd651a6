#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload mixed --seeds 0-9 [--seconds 15]
        [--trace 0] [--out record.json]

Prints one JSON record: the host, git sha, attempted/succeeded/failed
summed over the runs, and for every metric its per-run values, median,
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median -- the spread a gain must beat -- and
the same for each run's recorded p99, where every run had one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """``(record, result)`` of one ``run.py`` invocation."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the record here")
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        record, result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append((record, result))
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)
    names = list(runs[0][1]["metrics"])
    summary = {
        "workload": args.workload,
        "seeds": _seeds(args.seeds),
        "seconds": args.seconds,
        "trace": args.trace,
        "host": runs[0][0]["host"],
        "git_sha": runs[0][0]["git_sha"],
        "correct": all(result["correct"] for _, result in runs),
        "attempted": sum(record["attempted"] for record, _ in runs),
        "succeeded": sum(record["succeeded"] for record, _ in runs),
        "failed": sum(record["failed"] for record, _ in runs),
        "metrics": {
            name: dict(summarize([result["metrics"][name]["value"] for _, result in runs]),
                       unit=runs[0][1]["metrics"][name]["unit"])
            for name in names
        },
    }
    p99 = [record.get("p99_ms") for record, _ in runs]
    if all(p is not None for p in p99):
        summary["p99_ms"] = summarize(p99)
    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
