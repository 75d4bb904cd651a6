"""Tests for the scalar spot closed forms and their marginalized cost."""

import math

import numpy as np
import pytest

from repro import LogNormal
from repro.platforms.spot import (
    expected_spot_cost,
    expected_spot_time_checkpointed,
    expected_spot_time_restart,
    optimal_checkpoint_interval,
    simulate_spot_run,
)


class TestRestartFormula:
    def test_zero_rate_is_job_length(self):
        assert expected_spot_time_restart(5.0, 0.0) == 5.0

    def test_closed_form_values(self):
        lam, t = 0.5, 2.0
        assert expected_spot_time_restart(t, lam) == pytest.approx(
            (math.exp(lam * t) - 1) / lam
        )

    def test_small_rate_limit(self):
        """As lam -> 0, E[T] -> t."""
        assert expected_spot_time_restart(3.0, 1e-9) == pytest.approx(3.0, rel=1e-6)

    def test_exponential_blowup(self):
        short = expected_spot_time_restart(1.0, 1.0)
        long = expected_spot_time_restart(10.0, 1.0)
        assert long / short > 1000.0

    def test_overflow_returns_inf(self):
        assert math.isinf(expected_spot_time_restart(1000.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_spot_time_restart(-1.0, 0.5)
        with pytest.raises(ValueError):
            expected_spot_time_restart(1.0, -0.5)

    def test_matches_monte_carlo(self):
        """The renewal closed form equals the simulated mean."""
        lam, t = 0.8, 1.5
        rng_runs = [
            simulate_spot_run(t, lam, seed=1000 + i) for i in range(20_000)
        ]
        expected = expected_spot_time_restart(t, lam)
        se = np.std(rng_runs) / math.sqrt(len(rng_runs))
        assert np.mean(rng_runs) == pytest.approx(expected, abs=5 * se)


class TestCheckpointedFormula:
    def test_segment_count(self):
        # 5 hours in 2-hour segments -> two full segments plus a 1h tail;
        # the final partial segment is priced at its true length, not tau.
        lam = 0.0
        got = expected_spot_time_checkpointed(5.0, lam, 2.0, checkpoint_overhead=0.0)
        assert got == pytest.approx(2 * 2.0 + 1.0)

    def test_zero_length_job(self):
        assert expected_spot_time_checkpointed(0.0, 1.0, 1.0) == 0.0

    def test_tau_beyond_job_is_restart(self):
        # A single segment never checkpoints: tau >= t collapses exactly
        # to the restart formula (no trailing checkpoint, no overhead).
        lam, t = 0.7, 3.0
        restart = expected_spot_time_restart(t, lam)
        for tau in (t, 1.5 * t, 100.0):
            assert expected_spot_time_checkpointed(t, lam, tau, 0.3) == restart

    def test_monotone_convergence_to_restart(self):
        # Regression for the conservative last-segment overpricing: with
        # zero overhead the cost must rise monotonically toward the
        # restart value as tau -> t (checkpoints only ever help), hitting
        # it exactly at tau = t.  The old ceil-priced final segment made
        # this curve non-monotone (jumps at every divisor of t).
        lam, t = 0.9, 4.0
        restart = expected_spot_time_restart(t, lam)
        taus = np.linspace(0.25, t, 40)
        values = [
            expected_spot_time_checkpointed(t, lam, float(tau), 0.0)
            for tau in taus
        ]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)
        assert values[-1] == pytest.approx(restart, rel=1e-12)
        assert values[0] < restart

    def test_checkpointing_beats_restart_for_long_jobs(self):
        lam, t = 0.5, 20.0
        restart = expected_spot_time_restart(t, lam)
        ckpt = expected_spot_time_checkpointed(t, lam, 1.0, 0.05)
        assert ckpt < restart / 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_spot_time_checkpointed(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            expected_spot_time_checkpointed(1.0, 1.0, 1.0, -0.1)


class TestOptimalInterval:
    def test_near_young_daly_for_small_overhead(self):
        lam, C = 0.1, 0.01
        tau = optimal_checkpoint_interval(lam, C)
        daly = math.sqrt(2 * C / lam)
        assert tau == pytest.approx(daly, rel=0.25)

    def test_is_a_minimum(self):
        lam, C = 0.5, 0.1
        tau = optimal_checkpoint_interval(lam, C)

        def per_work(x):
            return math.expm1(lam * (x + C)) / (lam * x)

        assert per_work(tau) <= per_work(tau * 0.7)
        assert per_work(tau) <= per_work(tau * 1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(0.0, 0.1)
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(0.1, 0.0)


class TestExpectedSpotCost:
    def test_validation(self):
        d = LogNormal(0.0, 0.3)
        with pytest.raises(ValueError):
            expected_spot_cost(d, 0.0, 0.1)
        with pytest.raises(ValueError):
            expected_spot_cost(d, 0.3, -1.0)

    def test_expected_cost_restart_marginalizes(self):
        d = LogNormal(0.0, 0.3)  # ~1h jobs
        cost = expected_spot_cost(d, 0.3, 0.1)
        # Lower bound: price * E[X]; modest preemption inflation on top.
        assert cost > 0.3 * d.mean()
        assert cost < 0.3 * d.mean() * 1.3

    def test_checkpointed_cheaper_for_heavy_jobs(self):
        d = LogNormal(3.0, 0.4)  # ~22h jobs
        restart = expected_spot_cost(d, 0.3, 0.2)
        ckpt = expected_spot_cost(d, 0.3, 0.2, 1.0, 0.05)
        assert ckpt < restart
