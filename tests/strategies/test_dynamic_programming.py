"""Tests for the Theorem 5 dynamic program."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostModel, DiscreteDistribution, solve_discrete_dp
from repro.strategies.dynamic_programming import dp_sequence_for_discrete
from tests.strategies.dp_reference import exhaustive_optimal


class TestAgainstExhaustive:
    @pytest.mark.parametrize(
        "cm",
        [
            CostModel.reservation_only(),
            CostModel(alpha=1.0, beta=1.0, gamma=0.5),
            CostModel(alpha=0.95, beta=1.0, gamma=1.05),
        ],
        ids=["ro", "mixed", "hpc"],
    )
    def test_small_supports(self, cm, rng):
        for trial in range(8):
            n = int(rng.integers(2, 7))
            values = np.sort(rng.uniform(0.5, 20.0, size=n))
            if np.min(np.diff(values)) < 1e-6:
                continue
            masses = rng.dirichlet(np.ones(n))
            d = DiscreteDistribution(values, masses)
            result = solve_discrete_dp(d, cm)
            assert result.expected_cost == pytest.approx(
                exhaustive_optimal(d, cm), rel=1e-9
            )

    def test_single_point(self):
        d = DiscreteDistribution([3.0], [1.0])
        cm = CostModel(alpha=1.0, beta=1.0, gamma=0.5)
        r = solve_discrete_dp(d, cm)
        assert list(r.reservations) == [3.0]
        assert r.expected_cost == pytest.approx(2 * 3.0 + 0.5)


class TestStructure:
    def test_last_reservation_is_max_value(self):
        d = DiscreteDistribution([1.0, 2.0, 5.0, 9.0], [0.25] * 4)
        r = solve_discrete_dp(d, CostModel.reservation_only())
        assert r.reservations[-1] == 9.0

    def test_reservations_strictly_increasing(self):
        d = DiscreteDistribution(np.arange(1.0, 21.0), np.full(20, 0.05))
        r = solve_discrete_dp(d, CostModel(alpha=1.0, beta=0.5, gamma=0.1))
        assert np.all(np.diff(r.reservations) > 0)

    def test_choice_indices_map_to_values(self):
        d = DiscreteDistribution([1.0, 3.0, 7.0], [0.2, 0.3, 0.5])
        r = solve_discrete_dp(d, CostModel.reservation_only())
        np.testing.assert_allclose(d.values[r.choice_indices], r.reservations)

    def test_large_gamma_prefers_fewer_reservations(self):
        """A huge per-reservation overhead forces the singleton (v_n)."""
        d = DiscreteDistribution([1.0, 2.0, 4.0, 8.0], [0.25] * 4)
        r = solve_discrete_dp(d, CostModel(alpha=1.0, beta=0.0, gamma=1000.0))
        assert list(r.reservations) == [8.0]

    def test_zero_overhead_fine_grained(self):
        """With alpha-only cost, more reservations help on a spread support."""
        d = DiscreteDistribution([1.0, 10.0], [0.9, 0.1])
        r = solve_discrete_dp(d, CostModel.reservation_only())
        # Reserving 1 first (cost 1 + 10 w.p. 0.1) beats reserving 10 always.
        assert list(r.reservations) == [1.0, 10.0]

    def test_truncated_mass_supported(self):
        """Raw masses summing below 1 (truncated law) are renormalized."""
        d = DiscreteDistribution([1.0, 2.0], [0.6, 0.3])
        r = solve_discrete_dp(d, CostModel.reservation_only())
        d_norm = d.normalized()
        r_norm = solve_discrete_dp(d_norm, CostModel.reservation_only())
        assert r.expected_cost == pytest.approx(r_norm.expected_cost)
        np.testing.assert_allclose(r.reservations, r_norm.reservations)


class TestWrapper:
    def test_sequence_wrapper(self):
        d = DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        seq = dp_sequence_for_discrete(d, CostModel.reservation_only())
        assert seq.name == "discrete-dp"
        assert seq.last == 4.0


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.1, max_value=50.0), min_size=2, max_size=6, unique=True
    ),
    alpha=st.floats(min_value=0.1, max_value=5.0),
    beta=st.floats(min_value=0.0, max_value=3.0),
    gamma=st.floats(min_value=0.0, max_value=3.0),
)
def test_property_dp_never_beaten_by_exhaustive(values, alpha, beta, gamma):
    values = np.sort(np.asarray(values))
    if np.min(np.diff(values)) < 1e-6:
        return
    masses = np.full(len(values), 1.0 / len(values))
    d = DiscreteDistribution(values, masses)
    cm = CostModel(alpha=alpha, beta=beta, gamma=gamma)
    dp = solve_discrete_dp(d, cm).expected_cost
    ex = exhaustive_optimal(d, cm)
    assert dp == pytest.approx(ex, rel=1e-9)
