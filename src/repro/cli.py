"""``repro-plan`` — the user-facing planning tool.

Turn a job's execution-time distribution (named parameters, or a file of
historical runtimes to fit) plus a platform cost model into a concrete
reservation sequence, with expected cost, risk statistics and the
reservation-count distribution:

    repro-plan --distribution lognormal --param mu=3.0 --param sigma=0.5
    repro-plan --fit runtimes.txt --alpha 0.95 --beta 1 --gamma 1.05
    repro-plan --distribution exponential --param rate=2 --strategy equal_time_dp
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

import numpy as np

from repro import observability as obs
from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.fitting import fit_lognormal
from repro.distributions.registry import make_distribution
from repro.simulation.statistics import cost_statistics, reservation_count_pmf
from repro.strategies.registry import PAPER_STRATEGY_ORDER, make_strategy
from repro.utils.tables import format_table

__all__ = ["main"]

#: Counters promised in the metrics JSON even when a run never touches the
#: corresponding code path (e.g. a closed-form strategy never iterates the
#: Eq. (11) recurrence).
_PROMISED_COUNTERS = (
    "recurrence.iterations",
    "mc.samples",
    "sequence.extensions",
)


def _parse_params(pairs) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}; expected name=value")
        name, value = pair.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"bad --param value in {pair!r}") from None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Compute a reservation sequence for a stochastic job "
        "(Aupy et al., IPDPS 2019).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--distribution",
        help="distribution name (exponential, weibull, gamma, lognormal, "
        "truncated_normal, pareto, uniform, beta, bounded_pareto)",
    )
    source.add_argument(
        "--fit",
        metavar="FILE",
        help="fit a LogNormal to one-runtime-per-line FILE instead",
    )
    parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="distribution parameter (repeatable), e.g. --param mu=3.0",
    )
    parser.add_argument("--alpha", type=float, default=1.0, help="reservation price")
    parser.add_argument("--beta", type=float, default=0.0, help="usage price")
    parser.add_argument("--gamma", type=float, default=0.0, help="per-request overhead")
    parser.add_argument(
        "--strategy",
        default="brute_force",
        choices=PAPER_STRATEGY_ORDER,
        help="planning heuristic (default: brute_force)",
    )
    parser.add_argument(
        "--coverage",
        type=float,
        default=0.999,
        help="print reservations until this fraction of jobs is covered",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    spot = parser.add_argument_group(
        "spot tier advice",
        "compare the plan against spot-market execution (repro.platforms.spot)",
    )
    spot.add_argument(
        "--spot-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="spot interruptions per hour; enables the tier advice footer",
    )
    spot.add_argument(
        "--spot-price",
        type=float,
        default=0.3,
        metavar="PRICE",
        help="spot price per busy hour (default 0.3; on-demand is alpha)",
    )
    spot.add_argument(
        "--spot-checkpoint-overhead",
        type=float,
        default=0.05,
        metavar="HOURS",
        help="checkpoint write overhead in hours (default 0.05)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the plan as a JSON document to FILE",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree and per-phase timing table of this run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics registry as JSON to FILE",
    )
    args = parser.parse_args(argv)

    # Every CLI run doubles as a smoke benchmark: metrics and tracing are on
    # for the duration of main() (library defaults stay off).
    was_enabled = obs.is_enabled()
    obs.enable()
    registry = obs.get_registry()
    registry.reset()
    for name in _PROMISED_COUNTERS:
        registry.counter(name)
    try:
        return _run(args, registry)
    finally:
        if not was_enabled:
            obs.disable()


def _run(args, registry) -> int:

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    if args.fit:
        try:
            samples = np.loadtxt(args.fit, dtype=float).ravel()
        except OSError as exc:
            raise SystemExit(f"cannot read {args.fit}: {exc}") from None
        fit = fit_lognormal(samples)
        dist = fit.distribution()
        print(
            f"Fitted LogNormal(mu={fit.mu:.4f}, sigma={fit.sigma:.4f}) from "
            f"{fit.n_samples} runs (mean {fit.mean:.3f}, std {fit.std:.3f})"
        )
    else:
        try:
            dist = make_distribution(args.distribution, **_parse_params(args.param))
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
    cost_model = CostModel(alpha=args.alpha, beta=args.beta, gamma=args.gamma)
    print(f"Workload: {dist.describe()}")
    print(f"Costs:    {cost_model.describe()}\n")

    # ------------------------------------------------------------------
    # Plan
    # ------------------------------------------------------------------
    if not (0.0 < args.coverage < 1.0):
        raise SystemExit("--coverage must lie strictly between 0 and 1")
    strategy_kwargs = {"seed": args.seed} if args.strategy == "brute_force" else {}
    strategy = make_strategy(args.strategy, **strategy_kwargs)
    with obs.span(
        "repro-plan", strategy=strategy.name, distribution=dist.name
    ) as root:
        sequence = strategy.sequence(dist, cost_model)
        with obs.span("plan.coverage"), registry.timer("cli.coverage"):
            sequence.ensure_covers(float(dist.quantile(args.coverage)))
        # The plan is the coverage-extended prefix: the evaluations below
        # extend ``sequence`` further (deterministically) as they need.
        plan = ReservationSequence(sequence.values)

        with obs.span("evaluate.statistics"), registry.timer("cli.evaluation"):
            stats = cost_statistics(
                sequence, dist, cost_model, n_samples=5000, seed=args.seed
            )
        with obs.span("evaluate.pmf"), registry.timer("cli.evaluation"):
            pmf = reservation_count_pmf(sequence, dist)

    rows = []
    cum = 0.0
    for i, t in enumerate(plan.values):
        p_here = pmf[i] if i < len(pmf) else 0.0
        cum += p_here
        rows.append(
            [
                str(i + 1),
                f"{t:.4g}",
                f"{100.0 * p_here:.1f}%",
                f"{100.0 * min(cum, 1.0):.1f}%",
            ]
        )
    print(
        format_table(
            ["#", "reserve", "P(job ends here)", "cumulative"],
            rows,
            title=f"Recommended sequence ({strategy.name})",
        )
    )

    # The content-hash key under which repro-serve would cache this plan
    # (pure function of law params, cost model, strategy, knobs and
    # coverage).  The brute-force seed is a knob: without it the key names
    # the plan repro-serve seeds from the key, not this one.
    from repro.service.keys import plan_key

    cache_key = plan_key(
        dist, cost_model, args.strategy, knobs=strategy_kwargs,
        coverage=args.coverage,
    )

    omniscient = cost_model.omniscient_expected_cost(dist)
    print(f"\nExpected cost:        {stats.mean:.4f}")
    print(f"vs clairvoyant bound: {stats.mean / omniscient:.3f}x ({omniscient:.4f})")
    print(f"Cost std / p95 / p99: {stats.std:.4f} / {stats.cost_p95:.4f} / "
          f"{stats.cost_p99:.4f}")
    print(f"Expected #requests:   {stats.expected_reservations:.2f}")
    print(f"Plan cache key:       {cache_key[:16]}… (repro-serve)")

    # Timing footer (off the timer registry): every run is a smoke benchmark.
    strategy_s = registry.timer_total(f"strategy.{strategy.name}.sequence")
    evaluation_s = registry.timer_total("cli.evaluation")
    print(
        f"Planning wall time:   {root.duration:.3f}s "
        f"(strategy {strategy_s:.3f}s, evaluation {evaluation_s:.3f}s)"
    )

    if args.spot_rate is not None:
        _print_tier_advice(args, dist, cost_model, strategy, stats.mean)

    if args.trace:
        print("\nSpan tree:")
        print(obs.format_span_tree(root))
        print()
        print(
            format_table(
                ["timer", "count", "total s", "mean ms", "p95 ms"],
                list(registry.timer_rows()),
                title="Timers",
            )
        )

    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(registry.to_json() + "\n")
        print(f"\nMetrics written to {args.metrics_out}")

    if args.output:
        from repro.io import PlanDocument, plan_to_json

        doc = PlanDocument.from_sequence(
            plan,
            cost_model,
            strategy=strategy.name,
            distribution={"name": dist.name, "describe": dist.describe()},
            statistics={
                "expected_cost": stats.mean,
                "cost_std": stats.std,
                "cost_p95": stats.cost_p95,
                "cost_p99": stats.cost_p99,
                "expected_reservations": stats.expected_reservations,
                "omniscient_cost": omniscient,
            },
            notes=f"coverage quantile {args.coverage}; plan cache key {cache_key}",
        )
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(plan_to_json(doc))
        print(f"\nPlan written to {args.output}")
    return 0


def _print_tier_advice(args, dist, cost_model, strategy, reserved_cost) -> None:
    """Footer comparing the reserved plan against spot-tier execution."""
    if args.spot_rate < 0:
        raise SystemExit("--spot-rate must be nonnegative")
    if args.spot_price <= 0:
        raise SystemExit("--spot-price must be positive")
    if args.spot_checkpoint_overhead < 0:
        raise SystemExit("--spot-checkpoint-overhead must be nonnegative")
    from repro.platforms.spot import ConstantHazard, ConstantPrice, SpotScenario
    from repro.strategies.spot_tier import tier_lineup

    scenario = SpotScenario(
        price=ConstantPrice(args.spot_price),
        hazard=ConstantHazard(args.spot_rate),
        checkpoint_overhead=args.spot_checkpoint_overhead,
    )
    plans = [
        s.plan(dist, cost_model, scenario)
        for s in tier_lineup(strategy, max_segments=8)
    ]
    best = min(plans, key=lambda p: p.expected_cost)
    rows = []
    for plan in plans:
        knobs = []
        if plan.checkpoint_interval is not None:
            knobs.append(f"tau={plan.checkpoint_interval:.3g}h")
        if 0.0 < plan.spot_work_cap < float("inf"):
            knobs.append(f"spot cap={plan.spot_work_cap:.3g}h")
        rows.append(
            [
                plan.strategy,
                plan.tier,
                "inf"
                if plan.expected_cost == float("inf")
                else f"{plan.expected_cost:.4f}",
                ", ".join(knobs) or "-",
                "<- best" if plan is best else "",
            ]
        )
    print()
    print(
        format_table(
            ["variant", "tier", "expected cost", "knobs", ""],
            rows,
            title=(
                f"Spot tier advice (price {args.spot_price:g}/h, "
                f"{args.spot_rate:g} interruptions/h, checkpoint "
                f"{args.spot_checkpoint_overhead:g}h)"
            ),
        )
    )
    if best.tier == "reserved":
        verdict = "stay on reservations"
    elif best.tier == "spot":
        verdict = "run on spot"
    else:
        verdict = (
            f"spot through the first {best.spot_work_cap:.3g}h of work, "
            f"then reserve"
        )
    saving = reserved_cost - best.expected_cost
    print(
        f"Advice: {verdict} "
        f"(expected saving vs this plan: {max(saving, 0.0):.4f})"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
