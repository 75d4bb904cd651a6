"""Tests for the vectorized Monte-Carlo engine (Eq. 13)."""

import numpy as np
import pytest

from repro import (
    CostModel,
    Exponential,
    ReservationSequence,
    Uniform,
    monte_carlo_expected_cost,
)
from repro.core.sequence import SequenceError, constant_extender, geometric_extender
from repro.simulation.monte_carlo import costs_for_times


class TestCostsForTimes:
    def test_matches_scalar_path(self, any_cost_model):
        """The vectorized path equals the scalar Eq. (2) implementation."""
        seq_values = [1.0, 2.5, 6.0, 14.0]
        times = np.array([0.5, 1.0, 1.7, 2.5, 3.0, 13.9, 14.0])
        seq = ReservationSequence(seq_values)
        vec = costs_for_times(seq, times, any_cost_model)
        scalar = [any_cost_model.sequence_cost(seq_values, float(t)) for t in times]
        np.testing.assert_allclose(vec, scalar, rtol=1e-12)

    def test_extends_to_cover_max(self):
        seq = ReservationSequence([1.0], extend=geometric_extender(2.0))
        costs_for_times(seq, np.array([30.0]), CostModel.reservation_only())
        assert seq.last >= 30.0

    def test_boundary_exact_hit(self):
        seq = ReservationSequence([2.0, 4.0])
        cm = CostModel.reservation_only()
        out = costs_for_times(seq, np.array([2.0, 4.0]), cm)
        np.testing.assert_allclose(out, [2.0, 6.0])

    def test_zero_time(self):
        seq = ReservationSequence([2.0])
        cm = CostModel(alpha=1.0, beta=1.0, gamma=0.5)
        out = costs_for_times(seq, np.array([0.0]), cm)
        assert out[0] == pytest.approx(2.0 + 0.0 + 0.5)

    def test_negative_time_rejected(self):
        seq = ReservationSequence([2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            costs_for_times(seq, np.array([-1.0]), CostModel())

    def test_empty_rejected(self):
        seq = ReservationSequence([2.0])
        with pytest.raises(ValueError, match="at least one"):
            costs_for_times(seq, np.array([]), CostModel())

    def test_uncoverable_raises(self):
        seq = ReservationSequence([2.0])
        with pytest.raises(SequenceError):
            costs_for_times(seq, np.array([5.0]), CostModel())

    def test_large_batch_performance_shape(self):
        """100k samples in one vectorized call (no per-sample loop)."""
        seq = ReservationSequence([1.0], extend=constant_extender(1.0))
        times = Exponential(1.0).rvs(100_000, seed=0)
        out = costs_for_times(seq, times, CostModel.reservation_only())
        assert out.shape == times.shape
        assert np.all(out > 0)

    def test_records_one_kernel_call_when_instrumented(self, enabled_obs):
        registry, _ = enabled_obs
        seq = ReservationSequence([1.0], extend=constant_extender(1.0))
        costs_for_times(seq, np.array([0.5, 2.5]), CostModel.reservation_only())
        assert registry.timers["mc.kernel"].count == 1
        counters = registry.to_dict()["counters"]
        assert (counters["mc.kernel_calls"], counters["mc.samples"]) == (1, 2)


class TestMonteCarloExpectedCost:
    def test_converges_to_series(self):
        """MC mean approaches the exact expected cost (Eq. 13 vs Thm 1)."""
        from repro import expected_cost_series

        d = Exponential(1.0)
        cm = CostModel.reservation_only()

        def fresh():
            return ReservationSequence([1.0], extend=constant_extender(1.0))

        exact = expected_cost_series(fresh(), d, cm)
        mc = monte_carlo_expected_cost(fresh(), d, cm, n_samples=200_000, seed=1)
        assert mc.mean_cost == pytest.approx(exact, rel=0.02)
        assert abs(mc.mean_cost - exact) < 5 * mc.std_error

    def test_result_fields(self):
        d = Uniform(10.0, 20.0)
        seq = ReservationSequence([20.0])
        mc = monte_carlo_expected_cost(seq, d, CostModel.reservation_only(),
                                       n_samples=100, seed=2)
        assert mc.n_samples == 100
        assert mc.n_reservations_used == 1
        assert mc.max_reservations_hit == 1
        assert mc.std_error == 0.0  # single reservation: constant cost
        lo, hi = mc.confidence_interval()
        assert lo == hi == mc.mean_cost

    def test_reproducible(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()

        def run():
            seq = ReservationSequence([1.0], extend=constant_extender(1.0))
            return monte_carlo_expected_cost(seq, d, cm, n_samples=500, seed=9).mean_cost

        assert run() == run()

    def test_bad_n(self):
        seq = ReservationSequence([1.0])
        with pytest.raises(ValueError):
            monte_carlo_expected_cost(seq, Exponential(1.0), CostModel(), n_samples=0)
