"""``repro-lint`` — domain-aware static analysis for this repository.

Exit codes:

* ``0`` — no findings (inline-suppressed findings may exist);
* ``1`` — findings, or files that do not parse;
* ``2`` — usage error (bad path, unknown rule id, unknown option).

A finding is either fixed or carries a reasoned inline
``# repro-lint: disable=RSxxx -- reason``; there is no other way to
tolerate one.

Typical invocations::

    repro-lint src/                        # gate: human output, exit code
    repro-lint src/ --format json -o r.json  # CI artifact
    repro-lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import analyze_paths
from repro.analysis.reporters import Report, render_json, render_text
from repro.analysis.rules import all_rules, rule_classes

__all__ = ["main", "run", "DEFAULT_GRAPH_NAME"]

#: Default artifact name for ``--graph`` with no argument.
DEFAULT_GRAPH_NAME = "repro-lint-graph.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based reproducibility lint: per-file rule RS102, "
            "whole-project rule RS106, and call-graph dataflow rules "
            "RS201-RS204."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--graph",
        metavar="FILE",
        nargs="?",
        const=DEFAULT_GRAPH_NAME,
        default=None,
        help=(
            "write the call graph (symbol table, edges, resolution stats, "
            f"findings) as JSON to FILE (default: {DEFAULT_GRAPH_NAME})"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print call-graph resolution statistics",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def _split_ids(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def _write_graph(path: str, graph, findings) -> None:
    """The ``--graph`` artifact: call graph + findings, one JSON file."""
    import json

    doc = graph.to_json()
    doc["findings"] = [f.to_dict() for f in findings]
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"repro-lint: call graph written to {path} "
        f"({graph.stats.n_edges} edge(s), "
        f"{graph.stats.resolution_rate:.1%} resolved)"
    )


def run(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, cls in rule_classes().items():
            print(f"{rule_id}  {cls.summary}")
        return 0

    selected = _split_ids(args.select)
    ignored = set(_split_ids(args.ignore) or ())
    try:
        rules = all_rules(selected)
        all_rules(sorted(ignored))  # an unknown --ignore id fails the same way
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2
    rules = [r for r in rules if r.rule_id not in ignored]

    want_graph = args.graph is not None or args.stats
    try:
        result = analyze_paths(args.paths, rules=rules, with_graph=want_graph)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.stats and result.graph is not None:
        s = result.graph.stats
        print(
            f"repro-lint: call graph: {s.n_modules} module(s), "
            f"{s.n_functions} function(s), {s.n_call_sites} call site(s), "
            f"{s.n_resolved} resolved / {s.n_external} external / "
            f"{s.n_dynamic} dynamic "
            f"({s.resolution_rate:.1%} intra-project resolution)"
        )

    report = Report(
        n_files=result.n_files,
        findings=result.findings,
        suppressed=result.suppressed,
    )

    if args.graph is not None and result.graph is not None:
        _write_graph(args.graph, result.graph, report.findings)

    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    if args.output:
        Path(args.output).write_text(
            rendered if rendered.endswith("\n") else rendered + "\n",
            encoding="utf-8",
        )
        # Keep the terminal verdict one line so CI logs stay scannable.
        print(
            f"repro-lint: report written to {args.output} "
            f"({len(report.findings)} finding(s))"
        )
    else:
        print(rendered)
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    return run(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
