"""The full oracle sweep: every registered oracle x every Table 1 law.

``run_oracle_sweep`` is the engine behind the ``repro-verify`` CLI and the
regression backstop subsequent perf PRs run before merging: it cross-checks
the three expected-cost evaluators pairwise, the closed-form optima, the
Theorem 2 bounds and the Table 5/6 closed forms across the distribution
registry, then runs a deterministic spot-check of the invariant catalogue.
The result is a :class:`~repro.verification.report.ConformanceReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.cost import CostModel
from repro.distributions.registry import PAPER_ORDER, paper_distributions
from repro.observability import metrics, tracing
from repro.strategies.registry import make_strategy
from repro.verification import invariants as inv
from repro.verification.comparisons import Agreement
from repro.verification.oracles import context_for, iter_oracles
from repro.verification.report import CheckRecord, ConformanceReport

__all__ = ["SweepConfig", "run_oracle_sweep"]

#: Cost models every sweep exercises (the paper's two platforms).
DEFAULT_COST_MODELS: Dict[str, CostModel] = {
    "reservation_only": CostModel.reservation_only(),
    "neurohpc": CostModel.neurohpc(),
}

#: Deterministic invariant spot-checks run per (distribution, cost model).
#: Names must exist in :data:`repro.verification.invariants.INVARIANTS`.
SPOT_CHECK_INVARIANTS: Sequence[str] = (
    "quantile_edges",
    "cdf_quantile_roundtrip",
    "sf_complement",
    "moments_match_numeric",
    "conditional_exceeds_tau",
    "rvs_deterministic",
    "rvs_within_support",
    "sequence_strictly_increasing",
    "cost_at_least_omniscient",
)


@dataclass(frozen=True)
class SweepConfig:
    """Knobs of one conformance sweep."""

    quick: bool = False
    seed: int = 0
    distributions: Optional[Sequence[str]] = None  # None = all nine
    oracles: Optional[Sequence[str]] = None  # None = all registered
    include_invariant_spot_checks: bool = True

    def resolve_distributions(self) -> Dict[str, object]:
        all_laws = paper_distributions()
        if self.distributions is None:
            return all_laws
        unknown = set(self.distributions) - set(PAPER_ORDER)
        if unknown:
            raise KeyError(f"unknown distributions {sorted(unknown)}; known: {PAPER_ORDER}")
        return {name: all_laws[name] for name in self.distributions}


def _invariant_record(
    name: str, dist_name: str, cm_name: str, func, started: float
) -> CheckRecord:
    """Run one catalogue invariant, folding pass/raise into a CheckRecord."""
    try:
        func()
        agreement = Agreement(
            passed=True, left=0.0, right=0.0, discrepancy=0.0, allowance=0.0, detail="ok"
        )
    except inv.InvariantViolation as exc:
        agreement = Agreement(
            passed=False, left=0.0, right=0.0, discrepancy=0.0, allowance=0.0, detail=str(exc)
        )
    return CheckRecord.from_agreement(
        oracle=f"invariant.{name}",
        kind="invariant",
        distribution=dist_name,
        cost_model=cm_name,
        left_name=name,
        right_name="catalogue",
        agreement=agreement,
        duration_s=time.perf_counter() - started,
    )


def _spot_check_invariants(
    distribution, cost_model: CostModel, dist_name: str, cm_name: str, seed: int
) -> List[CheckRecord]:
    """Deterministic instantiations of the catalogue for one law.

    The Hypothesis suite explores these same invariants over randomized
    inputs; the sweep pins one representative input each so `repro-verify`
    stays reproducible run to run.
    """
    mid_seq = make_strategy("median_by_median").sequence(distribution, cost_model)
    mid_seq.ensure_covers(float(distribution.quantile(0.999)))
    tau = float(distribution.quantile(0.6))
    runs = {
        "quantile_edges": lambda: inv.check_quantile_edges(distribution),
        "cdf_quantile_roundtrip": lambda: inv.check_cdf_quantile_roundtrip(distribution, 0.37),
        "sf_complement": lambda: inv.check_sf_complement(
            distribution,
            [float(distribution.quantile(q)) for q in (0.05, 0.4, 0.8, 0.99)],
        ),
        "moments_match_numeric": lambda: inv.check_moments_match_numeric(distribution),
        "conditional_exceeds_tau": lambda: inv.check_conditional_exceeds_tau(distribution, tau),
        "rvs_deterministic": lambda: inv.check_rvs_deterministic(distribution, seed),
        "rvs_within_support": lambda: inv.check_rvs_within_support(distribution, seed),
        "sequence_strictly_increasing": lambda: inv.check_sequence_strictly_increasing(mid_seq),
        "cost_at_least_omniscient": lambda: inv.check_cost_at_least_omniscient(
            distribution, cost_model, mid_seq
        ),
    }
    assert set(runs) == set(SPOT_CHECK_INVARIANTS)
    records = []
    for name in SPOT_CHECK_INVARIANTS:
        started = time.perf_counter()
        records.append(_invariant_record(name, dist_name, cm_name, runs[name], started))
    return records


def run_oracle_sweep(config: SweepConfig = SweepConfig()) -> ConformanceReport:
    """Run all registered oracles across the distribution registry."""
    distributions = config.resolve_distributions()
    report = ConformanceReport(
        metadata={
            "quick": config.quick,
            "seed": config.seed,
            "distributions": list(distributions),
            "cost_models": [
                {"name": name, "describe": cm.describe()}
                for name, cm in DEFAULT_COST_MODELS.items()
            ],
            "oracles": sorted(config.oracles) if config.oracles is not None else "all",
        }
    )
    with tracing.span(
        "verification.sweep",
        quick=config.quick,
        n_distributions=len(distributions),
        n_cost_models=len(DEFAULT_COST_MODELS),
    ), metrics.timer("verification.sweep"):
        for cm_name, cost_model in DEFAULT_COST_MODELS.items():
            for dist_name, distribution in distributions.items():
                ctx = context_for(
                    distribution, cost_model, cm_name,
                    quick=config.quick, seed=config.seed,
                )
                report.extend(iter_oracles(ctx, names=config.oracles))
                if config.include_invariant_spot_checks:
                    report.extend(
                        _spot_check_invariants(
                            distribution, cost_model, dist_name, cm_name, config.seed
                        )
                    )
    report.metadata["n_checks"] = report.n_checks
    return report
