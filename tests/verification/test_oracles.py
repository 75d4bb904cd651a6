"""Oracle registry + sweep: the all-pairs conformance acceptance tests.

These are the checks the ISSUE's acceptance criteria name directly: all-pairs
agreement (series vs direct vs MC-with-CI) across all nine registered
distributions, plus both closed-form optima.
"""

import pytest

from repro import CostModel
from repro.distributions.registry import PAPER_ORDER, paper_distribution
from repro.verification.oracles import (
    ORACLES,
    OracleContext,
    context_for,
    run_oracle,
)
from repro.verification.sweep import (
    DEFAULT_COST_MODELS,
    SPOT_CHECK_INVARIANTS,
    SweepConfig,
    run_oracle_sweep,
)


def _quick_ctx(distribution, cost_model, name="test"):
    return context_for(distribution, cost_model, name, quick=True, seed=0)


class TestRegistry:
    def test_expected_oracles_registered(self):
        assert {
            "evaluator_all_pairs",
            "table5_moments",
            "table6_conditional",
            "thm2_bounds",
            "thm4_uniform_optimum",
            "prop2_exponential_optimum",
        } <= set(ORACLES)

    def test_unknown_oracle_raises(self):
        ctx = _quick_ctx(paper_distribution("exponential"), CostModel.reservation_only())
        with pytest.raises(KeyError, match="unknown oracle"):
            run_oracle("nope", ctx)

    def test_spot_check_names_exist_in_catalogue(self):
        from repro.verification.invariants import INVARIANTS

        assert set(SPOT_CHECK_INVARIANTS) <= set(INVARIANTS)


class TestEvaluatorAllPairs:
    def test_three_pairs_per_context(self, any_distribution, reservation_only):
        records = run_oracle(
            "evaluator_all_pairs", _quick_ctx(any_distribution, reservation_only)
        )
        pairs = {(r.left_name, r.right_name) for r in records}
        assert pairs == {
            ("series", "direct"),
            ("series", "monte_carlo"),
            ("direct", "monte_carlo"),
        }
        for record in records:
            assert record.passed, record.detail

    def test_all_pairs_agree_neurohpc(self, any_distribution, neurohpc_cost):
        records = run_oracle(
            "evaluator_all_pairs", _quick_ctx(any_distribution, neurohpc_cost)
        )
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_mc_pairs_are_ci_aware(self, reservation_only):
        records = run_oracle(
            "evaluator_all_pairs",
            _quick_ctx(paper_distribution("lognormal"), reservation_only),
        )
        mc_records = [r for r in records if r.right_name == "monte_carlo"]
        assert mc_records and all("CI half-width" in r.detail for r in mc_records)


class TestClosedFormOracles:
    def test_table5_all_distributions(self, any_distribution, reservation_only):
        records = run_oracle("table5_moments", _quick_ctx(any_distribution, reservation_only))
        assert {r.left_name for r in records} == {
            "closed.mean",
            "closed.second_moment",
            "closed.var",
        }
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_table6_all_distributions(self, any_distribution, reservation_only):
        records = run_oracle(
            "table6_conditional", _quick_ctx(any_distribution, reservation_only)
        )
        assert len(records) == 2  # quick profile: two quantile probes
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_thm2_bounds_contain(self, any_distribution, any_cost_model):
        records = run_oracle("thm2_bounds", _quick_ctx(any_distribution, any_cost_model))
        assert records, "thm2_bounds produced no checks"
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_thm4_only_fires_for_uniform(self, reservation_only):
        assert run_oracle(
            "thm4_uniform_optimum", _quick_ctx(paper_distribution("gamma"), reservation_only)
        ) == []
        records = run_oracle(
            "thm4_uniform_optimum", _quick_ctx(paper_distribution("uniform"), reservation_only)
        )
        assert len(records) == 3
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_thm4_holds_under_any_cost_model(self, any_cost_model):
        records = run_oracle(
            "thm4_uniform_optimum", _quick_ctx(paper_distribution("uniform"), any_cost_model)
        )
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_prop2_only_fires_for_exponential_reservation_only(self, neurohpc_cost):
        exp = paper_distribution("exponential")
        assert run_oracle("prop2_exponential_optimum", _quick_ctx(exp, neurohpc_cost)) == []
        records = run_oracle(
            "prop2_exponential_optimum", _quick_ctx(exp, CostModel.reservation_only())
        )
        assert len(records) == 3
        assert all(r.passed for r in records), [r.detail for r in records if not r.passed]

    def test_prop2_scales_with_alpha(self):
        # Prop. 2 is stated for alpha=1; the oracle normalizes other alphas.
        records = run_oracle(
            "prop2_exponential_optimum",
            _quick_ctx(
                paper_distribution("exponential"), CostModel.reservation_only(alpha=2.5)
            ),
        )
        assert records and all(r.passed for r in records)

    def test_prop2_scales_with_rate(self, reservation_only):
        from repro.distributions.exponential import Exponential

        records = run_oracle(
            "prop2_exponential_optimum", _quick_ctx(Exponential(rate=3.0), reservation_only)
        )
        assert records and all(r.passed for r in records)


class TestSweep:
    def test_quick_sweep_passes_everywhere(self):
        report = run_oracle_sweep(SweepConfig(quick=True, seed=0))
        assert report.passed, [r.label() + ": " + r.detail for r in report.failures()]
        # Coverage: every law under both cost models, all oracles.
        seen = {(r.distribution, r.cost_model) for r in report.records}
        assert seen == {
            (d, c) for d in PAPER_ORDER for c in DEFAULT_COST_MODELS
        }
        oracles_seen = {r.oracle for r in report.records if not r.oracle.startswith("invariant.")}
        assert oracles_seen == set(ORACLES)

    def test_sweep_metadata(self):
        report = run_oracle_sweep(
            SweepConfig(quick=True, seed=3, distributions=["uniform"], oracles=["table5_moments"],
                        include_invariant_spot_checks=False)
        )
        assert report.metadata["seed"] == 3
        assert report.metadata["distributions"] == ["uniform"]
        assert report.passed
        assert {r.oracle for r in report.records} == {"table5_moments"}

    def test_sweep_rejects_unknown_distribution(self):
        with pytest.raises(KeyError, match="unknown distributions"):
            run_oracle_sweep(SweepConfig(distributions=["cauchy"]))

    def test_sweep_is_deterministic(self):
        config = SweepConfig(quick=True, seed=11, distributions=["weibull"])
        a = run_oracle_sweep(config)
        b = run_oracle_sweep(config)
        assert [r.to_dict() | {"duration_s": 0} for r in a.records] == [
            r.to_dict() | {"duration_s": 0} for r in b.records
        ]

    def test_sweep_spot_checks_cover_catalogue_subset(self):
        report = run_oracle_sweep(
            SweepConfig(quick=True, distributions=["exponential"], oracles=[])
        )
        names = {r.oracle.removeprefix("invariant.") for r in report.records}
        assert names == set(SPOT_CHECK_INVARIANTS)


class TestReferenceSequence:
    def test_reference_sequence_is_reusable(self, reservation_only):
        ctx = _quick_ctx(paper_distribution("pareto"), reservation_only)
        s1 = ctx.reference_sequence()
        s2 = ctx.reference_sequence()
        assert s1 is not s2
        assert list(s1.values) == list(s2.values)

    def test_bounded_reference_covers_support(self, reservation_only):
        d = paper_distribution("bounded_pareto")
        ctx = OracleContext(distribution=d, cost_model=reservation_only)
        assert ctx.reference_sequence().last >= d.upper
