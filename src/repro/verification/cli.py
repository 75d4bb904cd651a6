"""``repro-verify`` — run the cross-validation oracle sweep.

Cross-checks every expected-cost evaluator against its alternatives (Theorem
1 series vs Eq. 3 integral vs Eq. 13 Monte-Carlo with CI-aware comparison),
the closed-form optima (Theorem 4, Proposition 2), the Theorem 2 bounds and
the Table 5/6 closed forms, across the paper's nine distributions and both
platform cost models, then emits a JSON conformance report:

    repro-verify --quick --output conformance-report.json
    repro-verify --distribution weibull --distribution pareto
    repro-verify --seed 7 --metrics-out verify-metrics.json

Exit status is 0 iff every check passed — wire it into CI as a regression
gate for perf refactors.
"""

from __future__ import annotations

import argparse
import sys

from repro import observability as obs
from repro.distributions.registry import PAPER_ORDER
from repro.utils.tables import format_table
from repro.verification.oracles import ORACLES
from repro.verification.sweep import SweepConfig, run_oracle_sweep

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Cross-validate every evaluator/closed-form pair of the "
        "reproduction and emit a JSON conformance report.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer Monte-Carlo samples and conditional-expectation probes "
        "(the CI profile)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for MC routes")
    parser.add_argument(
        "--distribution",
        action="append",
        choices=PAPER_ORDER,
        metavar="NAME",
        help=f"restrict to a law (repeatable); known: {', '.join(PAPER_ORDER)}",
    )
    parser.add_argument(
        "--oracle",
        action="append",
        choices=sorted(ORACLES),
        metavar="NAME",
        help=f"restrict to an oracle (repeatable); known: {', '.join(sorted(ORACLES))}",
    )
    parser.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the deterministic invariant spot-checks",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the JSON conformance report to FILE",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics registry as JSON to FILE",
    )
    parser.add_argument(
        "--list-failures-only",
        action="store_true",
        help="print only failing checks (default prints the per-oracle summary)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    was_enabled = obs.is_enabled()
    obs.enable()
    registry = obs.get_registry()
    registry.reset()
    try:
        return _run(args, registry)
    finally:
        if not was_enabled:
            obs.disable()


def _run(args, registry) -> int:
    config = SweepConfig(
        quick=args.quick,
        seed=args.seed,
        distributions=args.distribution,
        oracles=args.oracle,
        include_invariant_spot_checks=not args.no_invariants,
    )
    with obs.span("repro-verify", quick=args.quick) as root:
        report = run_oracle_sweep(config)

    if not args.list_failures_only:
        print(
            format_table(
                ["oracle", "checks", "failed", "verdict", "worst |err|/tol"],
                report.summary_rows(),
                title="Conformance sweep"
                + (" (quick)" if args.quick else "")
                + f" — seed {args.seed}",
            )
        )
        print()

    for failure in report.failures():
        print(f"FAIL {failure.label()}: {failure.left_name} vs {failure.right_name}")
        print(f"     {failure.detail}")

    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: {report.n_passed}/{report.n_checks} checks passed "
        f"in {root.duration:.2f}s "
        f"(mc samples drawn: {int(registry.counter('mc.samples').value)})"
    )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"Report written to {args.output}")

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.to_json() + "\n")
        print(f"Metrics written to {args.metrics_out}")

    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
