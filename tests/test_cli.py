"""Tests for the repro-plan CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.distributions.lognormal import LogNormal


class TestPlanCli:
    def test_named_distribution(self, capsys):
        assert main(["--distribution", "exponential", "--param", "rate=1.0",
                     "--strategy", "mean_by_mean"]) == 0
        out = capsys.readouterr().out
        assert "Recommended sequence (mean_by_mean)" in out
        assert "Expected cost" in out

    def test_brute_force_default(self, capsys):
        assert main(["--distribution", "uniform", "--param", "a=10",
                     "--param", "b=20"]) == 0
        out = capsys.readouterr().out
        # Theorem 4: one reservation at ~b = 20, cost ratio ~4/3.  (The MC
        # scan may pick 19.998 — the same artifact as the paper's Table 3
        # entry of 19.99 for Uniform.)
        assert "20" in out or "19.99" in out
        assert "1.33" in out

    def test_fit_from_file(self, tmp_path, capsys):
        path = tmp_path / "runs.txt"
        np.savetxt(path, LogNormal(3.0, 0.5).rvs(2000, seed=0))
        assert main(["--fit", str(path), "--strategy", "equal_time_dp"]) == 0
        out = capsys.readouterr().out
        assert "Fitted LogNormal" in out

    def test_cost_model_flags(self, capsys):
        assert main(["--distribution", "lognormal", "--param", "mu=3.0",
                     "--param", "sigma=0.5", "--alpha", "0.95",
                     "--beta", "1", "--gamma", "1.05",
                     "--strategy", "median_by_median"]) == 0
        assert "alpha=0.95" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--distribution", "lognormal", "--param", "mu"],  # bad param
            ["--distribution", "lognormal", "--param", "mu=abc"],
            ["--distribution", "nosuch"],
            ["--fit", "/nonexistent/file.txt"],
            ["--distribution", "exponential", "--param", "rate=1",
             "--coverage", "1.5"],
        ],
    )
    def test_errors_exit(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            main([])

    def test_printed_cache_key_names_the_seeded_plan(self, tmp_path, capsys):
        """The brute-force seed is one of the key's knobs, so repro-serve
        answers the printed key with the plan ``--output`` wrote."""
        import json

        from repro import CostModel
        from repro.distributions.weibull import Weibull
        from repro.service.keys import plan_key
        from repro.service.planner import PlannerService

        plans = {}
        for seed in (0, 3):
            path = tmp_path / f"plan-{seed}.json"
            assert main(["--distribution", "weibull", "--param", "scale=1",
                         "--param", "shape=0.5", "--seed", str(seed),
                         "--output", str(path)]) == 0
            key = plan_key(Weibull(1.0, 0.5), CostModel.reservation_only(),
                           "brute_force", knobs={"seed": seed}, coverage=0.999)
            assert f"Plan cache key:       {key[:16]}…" in capsys.readouterr().out
            reservations = json.loads(path.read_text())["reservations"]
            served = PlannerService().plan({
                "distribution": {"law": "weibull",
                                 "params": {"scale": 1.0, "shape": 0.5}},
                "strategy": {"name": "brute_force", "knobs": {"seed": seed}},
            })
            assert served["key"] == key
            assert served["plan"]["reservations"] == reservations
            plans[seed] = reservations
        assert plans[0] != plans[3]  # one key per plan, not per request


class TestObservabilityFlags:
    ARGS = ["--distribution", "exponential", "--param", "rate=1.0",
            "--strategy", "mean_by_mean"]

    def test_trace_prints_span_tree_and_timers(self, capsys, isolated_obs):
        assert main(self.ARGS + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "Span tree:" in out
        assert "repro-plan" in out
        assert "strategy.sequence" in out
        assert "evaluate.statistics" in out
        assert "Timers" in out
        # Footer: total wall time with strategy/evaluation breakdown.
        assert "Planning wall time" in out
        assert "evaluation" in out

    def test_trace_timings_sum_close_to_total(self, capsys, isolated_obs):
        import re

        assert main(self.ARGS + ["--trace"]) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"Planning wall time:\s+([\d.]+)s \(strategy ([\d.]+)s, "
            r"evaluation ([\d.]+)s\)",
            out,
        )
        assert match, out
        total, strategy, evaluation = map(float, match.groups())
        # The footer prints 3 decimals, so each parsed value carries up to
        # 0.5ms of rounding; 2ms of slack keeps a ~10ms fast run (where the
        # quantization is a whole print quantum) from flipping the verdict.
        assert strategy + evaluation <= total * 1.001 + 0.002
        # Acceptance bar: the accounted-for portions cover >=90% of the wall.
        assert strategy + evaluation >= total * 0.9 - 0.002

    def test_metrics_out_writes_promised_counters(self, tmp_path, capsys,
                                                  isolated_obs):
        import json

        path = tmp_path / "metrics.json"
        # brute_force drives the Eq. (11) recurrence, so its iteration
        # counter is provably nonzero here.
        argv = ["--distribution", "uniform", "--param", "a=10",
                "--param", "b=20", "--strategy", "brute_force",
                "--metrics-out", str(path)]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        counters = payload["counters"]
        assert counters["recurrence.iterations"] > 0
        assert counters["mc.samples"] > 0
        assert "sequence.extensions" in counters
        assert counters["brute_force.candidates"] > 0
        assert payload["timers"]  # at least the evaluation timers

    @pytest.mark.parametrize("strategy", ["brute_force", "mean_doubling",
                                          "equal_time_dp"])
    def test_plans_once_and_writes_the_coverage_prefix(self, tmp_path, capsys,
                                                       isolated_obs, strategy):
        import json

        from repro import CostModel, make_strategy

        metrics_path, plan_path = tmp_path / "m.json", tmp_path / "plan.json"
        argv = ["--distribution", "lognormal", "--param", "mu=3",
                "--param", "sigma=0.5", "--strategy", strategy,
                "--metrics-out", str(metrics_path), "--output", str(plan_path)]
        assert main(argv) == 0
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["strategy.sequences_built"] == 1
        # The plan is the fresh build extended to the coverage quantile, not
        # the longer sequence the statistics pass extended it to.
        dist = LogNormal(3.0, 0.5)
        kwargs = {"seed": 0} if strategy == "brute_force" else {}
        fresh = make_strategy(strategy, **kwargs).sequence(
            dist, CostModel.reservation_only()
        )
        fresh.ensure_covers(float(dist.quantile(0.999)))
        plan = json.loads(plan_path.read_text())
        assert plan["reservations"] == [float(v) for v in fresh.values]

    def test_flags_leave_observability_disabled_after(self, capsys,
                                                      isolated_obs):
        from repro import observability as obs

        assert not obs.is_enabled()
        assert main(self.ARGS + ["--trace"]) == 0
        capsys.readouterr()
        assert not obs.is_enabled()

    def test_plain_run_unaffected_by_flags_absence(self, capsys, isolated_obs):
        registry, _ = isolated_obs
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Trace" not in out
        assert "Planning wall time" in out  # footer always prints
