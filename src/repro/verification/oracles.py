"""Oracle registry: every independent route to the same number, paired up.

The paper is unusually oracle-rich — three evaluators for ``E(S)`` (Theorem 1
series, Eq. 3 integral, Eq. 13 Monte-Carlo), closed-form optima for Uniform
(Theorem 4) and Exponential/RESERVATIONONLY (Proposition 2), analytic bounds
(Theorem 2), and closed-form moments (Table 5) and conditional expectations
(Table 6) that the :class:`~repro.distributions.base.Distribution` base class
can independently recompute by quadrature.  An *oracle* here is one such
redundant pair plus the tolerance that decides agreement.

Each registered oracle is a function ``(OracleContext) -> list[CheckRecord]``.
The registry (:data:`ORACLES`) is iterated by the sweep; individual oracles
are importable for focused regression runs after a perf change.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.bounds import compute_bounds, t1_search_interval
from repro.core.cost import CostModel
from repro.core.expectation import expected_cost_direct, expected_cost_series
from repro.core.optimal import (
    expected_cost_exponential_optimal,
    exponential_optimal_sequence,
    uniform_optimal_sequence,
)
from repro.core.sequence import ReservationSequence, constant_extender
from repro.distributions.base import Distribution
from repro.distributions.exponential import Exponential
from repro.distributions.uniform import Uniform
from repro.observability import tracing
from repro.simulation.batch import (
    ReservationBatch,
    batch_cost_matrix,
    batch_expected_costs,
)
from repro.simulation.monte_carlo import costs_for_times, monte_carlo_expected_cost
from repro.strategies.brute_force import BruteForce
from repro.strategies.mean_doubling import MeanDoubling
from repro.utils.rng import SeedLike
from repro.verification.comparisons import (
    CLOSED_FORM_TOL,
    DEFAULT_MC_Z,
    QUADRATURE_PAIR_TOL,
    Tolerance,
    agree_close,
    agree_upper_bound,
    agree_within_ci,
)
from repro.verification.report import CheckRecord

__all__ = [
    "OracleContext",
    "ORACLES",
    "register_oracle",
    "run_oracle",
    "iter_oracles",
]


@dataclass
class OracleContext:
    """Everything an oracle needs to produce its checks for one law."""

    distribution: Distribution
    cost_model: CostModel
    cost_model_name: str = "custom"
    n_samples: int = 20_000
    mc_z: float = DEFAULT_MC_Z
    seed: SeedLike = 0
    #: Interior quantiles at which conditional-expectation oracles evaluate.
    taus_q: tuple = (0.25, 0.5, 0.9)
    #: Reference sequence under test for the evaluator cross-checks; built
    #: lazily (MEAN-DOUBLING: cheap, valid for every law) when not supplied.
    reference_values: Optional[List[float]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dist_name(self) -> str:
        return getattr(self.distribution, "name", type(self.distribution).__name__)

    def reference_sequence(self) -> ReservationSequence:
        """A fresh covering sequence (fresh: evaluators may extend it)."""
        if self.reference_values is None:
            seq = MeanDoubling().sequence(self.distribution, self.cost_model)
            # Materialize deep enough that the three evaluators see the same
            # prefix regardless of evaluation order.
            if self.distribution.is_bounded:
                seq.ensure_covers(self.distribution.upper)
            else:
                seq.ensure_covers(float(self.distribution.quantile(1.0 - 1e-9)))
            self.reference_values = [float(v) for v in seq.values]
        values = list(self.reference_values)
        extender = None
        if not self.distribution.is_bounded:
            extender = constant_extender(max(values[-1], 1.0))
        return ReservationSequence(values, extend=extender, name="oracle-reference")


#: name -> oracle function.
ORACLES: Dict[str, Callable[[OracleContext], List[CheckRecord]]] = {}


def register_oracle(name: str) -> Callable:
    def decorator(func: Callable[[OracleContext], List[CheckRecord]]) -> Callable:
        if name in ORACLES:
            raise ValueError(f"duplicate oracle name {name!r}")
        ORACLES[name] = func
        func.oracle_name = name
        return func

    return decorator


def _record(
    ctx: OracleContext,
    oracle: str,
    kind: str,
    left_name: str,
    right_name: str,
    agreement,
    started: float,
) -> CheckRecord:
    return CheckRecord.from_agreement(
        oracle=oracle,
        kind=kind,
        distribution=ctx.dist_name,
        cost_model=ctx.cost_model_name,
        left_name=left_name,
        right_name=right_name,
        agreement=agreement,
        duration_s=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Evaluator all-pairs agreement (Theorem 1 / Eq. 3 / Eq. 13)
# ----------------------------------------------------------------------
def _evaluator_outputs(ctx: OracleContext) -> dict:
    """Evaluate the reference sequence through all three routes once."""
    if "evaluators" in ctx._cache:
        return ctx._cache["evaluators"]
    series = expected_cost_series(ctx.reference_sequence(), ctx.distribution, ctx.cost_model)
    direct = expected_cost_direct(ctx.reference_sequence(), ctx.distribution, ctx.cost_model)
    mc = monte_carlo_expected_cost(
        ctx.reference_sequence(),
        ctx.distribution,
        ctx.cost_model,
        n_samples=ctx.n_samples,
        seed=ctx.seed,
    )
    out = {"series": series, "direct": direct, "monte_carlo": mc}
    ctx._cache["evaluators"] = out
    return out


@register_oracle("evaluator_all_pairs")
def evaluator_all_pairs(ctx: OracleContext) -> List[CheckRecord]:
    """All pairs among {series, direct, monte_carlo} on a reference sequence.

    Deterministic pairs compare with quadrature tolerance; any pair involving
    the Monte-Carlo estimate is CI-aware (the exact side must fall within the
    estimate's ``z``-sigma interval).
    """
    started = time.perf_counter()
    outputs = _evaluator_outputs(ctx)
    records: List[CheckRecord] = []
    for left, right in itertools.combinations(outputs, 2):
        t0 = time.perf_counter()
        a, b = outputs[left], outputs[right]
        if right == "monte_carlo":
            agreement = agree_within_ci(b.mean_cost, b.std_error, a, z=ctx.mc_z)
        elif left == "monte_carlo":  # pragma: no cover - ordering keeps MC last
            agreement = agree_within_ci(a.mean_cost, a.std_error, b, z=ctx.mc_z)
        else:
            agreement = agree_close(a, b, QUADRATURE_PAIR_TOL)
        records.append(
            _record(ctx, "evaluator_all_pairs", "pair", left, right, agreement, t0)
        )
    # Guard against silently comparing nothing.
    assert len(records) == 3, f"expected 3 evaluator pairs, built {len(records)}"
    del started
    return records


# ----------------------------------------------------------------------
# Table 5: closed-form moments vs quadrature
# ----------------------------------------------------------------------
@register_oracle("table5_moments")
def table5_moments(ctx: OracleContext) -> List[CheckRecord]:
    """Closed-form mean / second moment / variance vs the base-class
    survival-function quadrature (Table 5)."""
    d = ctx.distribution
    records = []
    for label, closed, numeric in (
        ("mean", d.mean(), Distribution.mean(d)),
        ("second_moment", d.second_moment(), Distribution.second_moment(d)),
        ("var", d.var(), Distribution.var(d)),
    ):
        t0 = time.perf_counter()
        agreement = agree_close(closed, numeric, Tolerance(rtol=1e-6, atol=1e-9))
        records.append(
            _record(
                ctx,
                "table5_moments",
                "closed_form",
                f"closed.{label}",
                f"numeric.{label}",
                agreement,
                t0,
            )
        )
    return records


# ----------------------------------------------------------------------
# Table 6: closed-form conditional expectations vs quadrature
# ----------------------------------------------------------------------
@register_oracle("table6_conditional")
def table6_conditional(ctx: OracleContext) -> List[CheckRecord]:
    """``E[X | X > tau]`` closed form vs quadrature at interior quantiles."""
    d = ctx.distribution
    records = []
    for q in ctx.taus_q:
        tau = float(d.quantile(q))
        t0 = time.perf_counter()
        closed = float(d.conditional_expectation(tau))
        numeric = float(Distribution.conditional_expectation(d, tau))
        agreement = agree_close(closed, numeric, Tolerance(rtol=1e-5, atol=1e-8))
        records.append(
            _record(
                ctx,
                "table6_conditional",
                "closed_form",
                f"closed@q={q:g}",
                f"numeric@q={q:g}",
                agreement,
                t0,
            )
        )
    return records


# ----------------------------------------------------------------------
# Theorem 2: bound containment
# ----------------------------------------------------------------------
@register_oracle("thm2_bounds")
def thm2_bounds(ctx: OracleContext) -> List[CheckRecord]:
    """Theorem 2 containment: the ``t_i = a + i`` witness costs at most
    ``A_2``; the omniscient cost sits below ``A_2``; and on unbounded laws
    the brute-force search interval ends exactly at ``A_1``."""
    d, cm = ctx.distribution, ctx.cost_model
    bounds = compute_bounds(d, cm)
    records = []

    t0 = time.perf_counter()
    a = d.lower
    first = a + 1.0 if a + 1.0 < d.upper else d.upper
    witness = ReservationSequence([first], extend=constant_extender(1.0), name="thm2-witness")
    witness_cost = expected_cost_series(witness, d, cm)
    records.append(
        _record(
            ctx,
            "thm2_bounds",
            "bound",
            "E(witness a+i)",
            "A_2",
            agree_upper_bound(witness_cost, bounds.a2, Tolerance(rtol=1e-9, atol=1e-9)),
            t0,
        )
    )

    t0 = time.perf_counter()
    records.append(
        _record(
            ctx,
            "thm2_bounds",
            "bound",
            "E^o",
            "A_2",
            agree_upper_bound(
                cm.omniscient_expected_cost(d), bounds.a2, Tolerance(rtol=1e-9, atol=1e-9)
            ),
            t0,
        )
    )

    if not d.is_bounded:
        t0 = time.perf_counter()
        _, hi = t1_search_interval(d, cm)
        records.append(
            _record(
                ctx,
                "thm2_bounds",
                "bound",
                "t1_search_interval.hi",
                "A_1",
                agree_close(hi, bounds.a1, CLOSED_FORM_TOL),
                t0,
            )
        )
    return records


# ----------------------------------------------------------------------
# Theorem 4: Uniform closed-form optimum
# ----------------------------------------------------------------------
@register_oracle("thm4_uniform_optimum")
def thm4_uniform_optimum(ctx: OracleContext) -> List[CheckRecord]:
    """Theorem 4 (Uniform only): the singleton ``(b)`` sequence's series cost
    equals the closed form ``alpha b + beta E[X] + gamma``, the Monte-Carlo
    route agrees within CI, and no reference heuristic beats it."""
    d, cm = ctx.distribution, ctx.cost_model
    if not isinstance(d, Uniform):
        return []
    records = []
    opt = uniform_optimal_sequence(d)
    closed = cm.alpha * d.upper + cm.beta * d.mean() + cm.gamma

    t0 = time.perf_counter()
    series = expected_cost_series(opt, d, cm)
    records.append(
        _record(
            ctx,
            "thm4_uniform_optimum",
            "closed_form",
            "series(singleton b)",
            "alpha*b + beta*E[X] + gamma",
            agree_close(series, closed, CLOSED_FORM_TOL),
            t0,
        )
    )

    t0 = time.perf_counter()
    mc = monte_carlo_expected_cost(opt, d, cm, n_samples=ctx.n_samples, seed=ctx.seed)
    records.append(
        _record(
            ctx,
            "thm4_uniform_optimum",
            "pair",
            "monte_carlo(singleton b)",
            "closed form",
            agree_within_ci(mc.mean_cost, mc.std_error, closed, z=ctx.mc_z),
            t0,
        )
    )

    t0 = time.perf_counter()
    heuristic_cost = expected_cost_series(ctx.reference_sequence(), d, cm)
    records.append(
        _record(
            ctx,
            "thm4_uniform_optimum",
            "bound",
            "E(optimum)",
            "E(reference heuristic)",
            agree_upper_bound(closed, heuristic_cost, Tolerance(rtol=1e-9, atol=1e-9)),
            t0,
        )
    )
    return records


# ----------------------------------------------------------------------
# Proposition 2: Exponential closed-form optimum (RESERVATIONONLY)
# ----------------------------------------------------------------------
@register_oracle("prop2_exponential_optimum")
def prop2_exponential_optimum(ctx: OracleContext) -> List[CheckRecord]:
    """Proposition 2 (Exponential + RESERVATIONONLY only): the reduced-series
    cost ``E_1 / lambda`` matches the Theorem 1 series on the materialized
    optimal sequence, the Monte-Carlo route agrees within CI, and the optimum
    does not exceed the reference heuristic."""
    d, cm = ctx.distribution, ctx.cost_model
    if not isinstance(d, Exponential) or not cm.is_reservation_only:
        return []
    if abs(cm.alpha - 1.0) > 1e-12:
        # Prop. 2 is stated for alpha=1; costs scale linearly in alpha, so
        # normalize rather than skip.
        scale = cm.alpha
    else:
        scale = 1.0
    records = []
    closed = scale * expected_cost_exponential_optimal(d.rate)
    opt = exponential_optimal_sequence(d.rate)

    t0 = time.perf_counter()
    series = expected_cost_series(opt, d, cm)
    records.append(
        _record(
            ctx,
            "prop2_exponential_optimum",
            "closed_form",
            "series(S_lambda)",
            "E_1 / lambda",
            agree_close(series, closed, Tolerance(rtol=1e-8, atol=1e-10)),
            t0,
        )
    )

    t0 = time.perf_counter()
    mc = monte_carlo_expected_cost(
        exponential_optimal_sequence(d.rate), d, cm, n_samples=ctx.n_samples, seed=ctx.seed
    )
    records.append(
        _record(
            ctx,
            "prop2_exponential_optimum",
            "pair",
            "monte_carlo(S_lambda)",
            "E_1 / lambda",
            agree_within_ci(mc.mean_cost, mc.std_error, closed, z=ctx.mc_z),
            t0,
        )
    )

    t0 = time.perf_counter()
    heuristic_cost = expected_cost_series(ctx.reference_sequence(), d, cm)
    records.append(
        _record(
            ctx,
            "prop2_exponential_optimum",
            "bound",
            "E(S_lambda)",
            "E(reference heuristic)",
            agree_upper_bound(closed, heuristic_cost, Tolerance(rtol=1e-9, atol=1e-9)),
            t0,
        )
    )
    return records


# ----------------------------------------------------------------------
# Batched kernels vs the serial Eq. (13) kernel
# ----------------------------------------------------------------------
@register_oracle("batch_vs_serial_kernel")
def batch_vs_serial_kernel(ctx: OracleContext) -> List[CheckRecord]:
    """The batched cost kernels against the per-sequence serial kernel.

    Builds a small family of covering sequences (the reference heuristic and
    scaled variants), draws one shared sample set, and checks that (a) the
    batched matrix kernel reproduces the looped serial kernel *exactly*
    (zero tolerance — the batch path is advertised as bit-identical), and
    (b) the O(S*L) moments kernel's means match the matrix means to float
    round-off.
    """
    d, cm = ctx.distribution, ctx.cost_model
    n = min(ctx.n_samples, 4000)
    samples = d.rvs(n, seed=ctx.seed)
    tmax = float(np.max(samples))
    reference = np.asarray(ctx.reference_sequence().values, dtype=float)
    rows = []
    for scale in (0.75, 1.0, 1.4):
        row = reference * scale
        if row[-1] < tmax:
            row = np.append(row, tmax)
        rows.append(row)
    batch = ReservationBatch.from_rows(rows)
    records = []

    t0 = time.perf_counter()
    matrix = batch_cost_matrix(batch, samples, cm)
    looped = np.vstack(
        [
            costs_for_times(ReservationSequence(row), samples, cm)
            for row in rows
        ]
    )
    max_diff = float(np.max(np.abs(matrix - looped)))
    records.append(
        _record(
            ctx,
            "batch_vs_serial_kernel",
            "pair",
            "batch_cost_matrix",
            "looped costs_for_times",
            agree_close(max_diff, 0.0, Tolerance(rtol=0.0, atol=0.0)),
            t0,
        )
    )

    t0 = time.perf_counter()
    moments = batch_expected_costs(batch, samples, cm)
    mean_err = float(
        np.max(np.abs(moments.mean_cost - looped.mean(axis=1)))
    )
    scale_ref = float(np.max(np.abs(looped.mean(axis=1))))
    records.append(
        _record(
            ctx,
            "batch_vs_serial_kernel",
            "pair",
            "batch_expected_costs.mean",
            "looped means",
            agree_close(mean_err, 0.0, Tolerance(rtol=0.0, atol=1e-10 * max(scale_ref, 1.0))),
            t0,
        )
    )
    return records


# ----------------------------------------------------------------------
# Screened BRUTE-FORCE winner vs the full scan
# ----------------------------------------------------------------------
#: Grid size of the screen oracle: large enough for near-ties, small enough
#: that the full-matrix scan it compares against stays cheap.
SCREEN_ORACLE_M_GRID = 1000


@register_oracle("brute_force_screen")
def brute_force_screen(ctx: OracleContext) -> List[CheckRecord]:
    """``BruteForce.sequence`` (moments screen + matrix re-cost of the
    near-ties) against ``BruteForce.scan`` (the full cost matrix) on one
    shared sample set: the winning ``t_1`` and its cost must agree exactly
    (zero tolerance — the screen's margin is derived so that it can never
    drop the full argmin)."""
    d, cm = ctx.distribution, ctx.cost_model
    bf = BruteForce(m_grid=SCREEN_ORACLE_M_GRID, n_samples=1000, seed=ctx.seed)
    samples = d.rvs(bf.n_samples, seed=ctx.seed)
    exact = Tolerance(rtol=0.0, atol=0.0)

    t0 = time.perf_counter()
    scan = bf.scan(d, cm, samples=samples)
    screened_t1 = bf.sequence(d, cm, samples=samples).values[0]
    records = [
        _record(
            ctx, "brute_force_screen", "pair", "sequence().t1", "scan().best_t1",
            agree_close(screened_t1, scan.best_t1, exact), t0,
        )
    ]
    t0 = time.perf_counter()
    _, screened_cost = bf.best_candidate(d, cm, samples=samples)
    records.append(
        _record(
            ctx, "brute_force_screen", "pair", "best_candidate().cost",
            "scan().best_cost", agree_close(screened_cost, scan.best_cost, exact),
            t0,
        )
    )
    return records


# ----------------------------------------------------------------------
# Spot-market Monte-Carlo evaluator vs the scalar closed forms
# ----------------------------------------------------------------------
@register_oracle("spot_mc_vs_closed_form")
def spot_mc_vs_closed_form(ctx: OracleContext) -> List[CheckRecord]:
    """The interruption-aware MC evaluator against the memoryless
    constant-price closed forms.

    Three pairings, all in the OU-volatility-0 / constant-hazard limit where
    the closed forms are exact (the MC stepping draws interruption times by
    exact inverse transform, so these are z-score checks, not
    discretization-tolerance checks):

    * fixed-length restart vs ``price * expected_spot_time_restart``;
    * fixed-length checkpointed vs ``price * expected_spot_time_checkpointed``
      (true-length final segment on both sides);
    * marginalized checkpointed over the law vs the quadrature evaluator
      ``expected_spot_cost``.

    Spot pricing is orthogonal to the reservation cost model, so the oracle
    runs once per law — on the RESERVATIONONLY cells only.
    """
    if not ctx.cost_model.is_reservation_only:
        return []
    from repro.platforms.spot import (
        ConstantHazard,
        OUPriceProcess,
        SpotScenario,
        expected_spot_cost,
        expected_spot_time_checkpointed,
        expected_spot_time_restart,
        spot_monte_carlo_cost,
    )

    d = ctx.distribution
    t_med = float(d.quantile(0.5))
    price = 0.3
    rate = 0.5 / t_med
    n_paths = max(1000, ctx.n_samples // 5)
    # Volatility 0 exercises the OU stepping code in its degenerate limit.
    process = OUPriceProcess(mean=price, reversion=1.0, volatility=0.0)
    tau = t_med / 3.0
    overhead = 0.1 * tau
    records = []

    t0 = time.perf_counter()
    scenario = SpotScenario(
        price=process,
        hazard=ConstantHazard(rate),
        checkpoint_overhead=0.0,
        step=t_med / 48.0,
    )
    mc = spot_monte_carlo_cost(
        t_med, scenario, recovery="restart", n_paths=n_paths, seed=ctx.seed
    )
    closed = price * expected_spot_time_restart(t_med, rate)
    records.append(
        _record(
            ctx,
            "spot_mc_vs_closed_form",
            "pair",
            "spot MC restart (fixed length)",
            "price * expected_spot_time_restart",
            agree_within_ci(mc.mean_cost, mc.std_error, closed, z=ctx.mc_z),
            t0,
        )
    )

    t0 = time.perf_counter()
    scenario_ckpt = SpotScenario(
        price=process,
        hazard=ConstantHazard(rate),
        checkpoint_overhead=overhead,
        step=t_med / 48.0,
    )
    mc = spot_monte_carlo_cost(
        t_med,
        scenario_ckpt,
        recovery="checkpoint",
        checkpoint_interval=tau,
        n_paths=n_paths,
        seed=ctx.seed,
    )
    closed = price * expected_spot_time_checkpointed(t_med, rate, tau, overhead)
    records.append(
        _record(
            ctx,
            "spot_mc_vs_closed_form",
            "pair",
            "spot MC checkpointed (fixed length)",
            "price * expected_spot_time_checkpointed",
            agree_within_ci(mc.mean_cost, mc.std_error, closed, z=ctx.mc_z),
            t0,
        )
    )

    t0 = time.perf_counter()
    mc = spot_monte_carlo_cost(
        d,
        scenario_ckpt,
        recovery="checkpoint",
        checkpoint_interval=tau,
        n_paths=n_paths,
        seed=ctx.seed,
    )
    quad = expected_spot_cost(
        d, price, rate, checkpoint_interval=tau, checkpoint_overhead=overhead
    )
    records.append(
        _record(
            ctx,
            "spot_mc_vs_closed_form",
            "pair",
            "spot MC checkpointed (marginalized)",
            "expected_spot_cost quadrature",
            agree_within_ci(mc.mean_cost, mc.std_error, quad, z=ctx.mc_z),
            t0,
        )
    )
    return records


# ----------------------------------------------------------------------
# Driver helpers
# ----------------------------------------------------------------------
def run_oracle(name: str, ctx: OracleContext) -> List[CheckRecord]:
    """Run one registered oracle under a tracing span."""
    if name not in ORACLES:
        raise KeyError(f"unknown oracle {name!r}; known: {sorted(ORACLES)}")
    with tracing.span(
        "verification.oracle",
        oracle=name,
        distribution=ctx.dist_name,
        cost_model=ctx.cost_model_name,
    ):
        return ORACLES[name](ctx)


def iter_oracles(ctx: OracleContext, names=None) -> List[CheckRecord]:
    """Run every (or the named subset of) registered oracles for one law."""
    records: List[CheckRecord] = []
    for name in names if names is not None else sorted(ORACLES):
        records.extend(run_oracle(name, ctx))
    return records


def context_for(
    distribution: Distribution,
    cost_model: CostModel,
    cost_model_name: str,
    quick: bool,
    seed: SeedLike,
) -> OracleContext:
    """Standard sweep context; ``quick`` trades MC samples for speed."""
    ctx = OracleContext(
        distribution=distribution,
        cost_model=cost_model,
        cost_model_name=cost_model_name,
        seed=seed,
    )
    if quick:
        ctx = replace(ctx, n_samples=4000, taus_q=(0.5, 0.9), _cache={})
    return ctx
