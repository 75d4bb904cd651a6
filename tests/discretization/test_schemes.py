"""Tests for the EQUAL-TIME / EQUAL-PROBABILITY discretization schemes."""

import numpy as np
import pytest

from repro import Exponential, LogNormal, Uniform, discretize, equal_probability, equal_time
from repro.discretization import truncation_bound


class TestEqualProbability:
    def test_uniform_masses(self):
        d = equal_probability(Uniform(10.0, 20.0), 10)
        np.testing.assert_allclose(d.masses, 0.1)

    def test_values_are_quantiles(self):
        dist = Exponential(1.0)
        d = equal_probability(dist, 4, epsilon=1e-7)
        fb = float(dist.cdf(truncation_bound(dist, 1e-7).upper))
        for i, v in enumerate(d.values, start=1):
            assert v == pytest.approx(float(dist.quantile(i * fb / 4)), rel=1e-9)

    def test_mass_sums_to_f_b(self, unbounded_distribution):
        eps = 1e-5
        d = equal_probability(unbounded_distribution, 100, epsilon=eps)
        assert d.total_mass == pytest.approx(1.0 - eps, abs=1e-9)

    def test_bounded_mass_sums_to_one(self, bounded_distribution):
        d = equal_probability(bounded_distribution, 100)
        assert d.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_strictly_increasing(self, any_distribution):
        d = equal_probability(any_distribution, 50)
        assert np.all(np.diff(d.values) > 0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            equal_probability(Exponential(1.0), 0)


class TestEqualTime:
    def test_values_equally_spaced(self):
        dist = Uniform(10.0, 20.0)
        d = equal_time(dist, 5)
        np.testing.assert_allclose(d.values, [12.0, 14.0, 16.0, 18.0, 20.0])

    def test_masses_are_cdf_increments(self):
        dist = Exponential(1.0)
        d = equal_time(dist, 8, epsilon=1e-4)
        edges = np.concatenate([[0.0], d.values])
        expected = np.diff(np.asarray(dist.cdf(edges)))
        np.testing.assert_allclose(d.masses, expected, atol=1e-12)

    def test_mass_total(self, any_distribution):
        d = equal_time(any_distribution, 64, epsilon=1e-6)
        target = 1.0 if any_distribution.is_bounded else 1.0 - 1e-6
        assert d.total_mass == pytest.approx(target, abs=1e-7)

    def test_last_value_is_truncation_bound(self, unbounded_distribution):
        eps = 1e-5
        d = equal_time(unbounded_distribution, 32, epsilon=eps)
        b = truncation_bound(unbounded_distribution, eps).upper
        assert d.values[-1] == pytest.approx(b)

    def test_zero_mass_cells_dropped(self):
        """Pareto's support starts at 1.5; EQUAL-TIME cells below contribute
        nothing and must be dropped rather than kept as zero-mass points."""
        from repro import Pareto

        d = equal_time(Pareto(1.5, 3.0), 50, epsilon=1e-4)
        assert np.all(d.masses > 0)

    def test_mean_approximates_distribution(self):
        dist = LogNormal(3.0, 0.5)
        d = equal_time(dist, 2000, epsilon=1e-9)
        assert d.mean() == pytest.approx(dist.mean(), rel=0.01)


class TestDispatch:
    def test_by_name(self):
        a = discretize(Exponential(1.0), 16, "equal_time")
        b = equal_time(Exponential(1.0), 16)
        np.testing.assert_allclose(a.values, b.values)

    def test_dash_alias(self):
        d = discretize(Exponential(1.0), 8, "equal-probability")
        assert len(d) == 8

    def test_unknown_scheme(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            discretize(Exponential(1.0), 8, "magic")


class TestConvergence:
    def test_equal_probability_mean_converges(self):
        """Discrete mean -> continuous mean as n grows (used by Table 4)."""
        dist = Exponential(1.0)
        errs = []
        for n in [10, 100, 1000]:
            d = equal_probability(dist, n, epsilon=1e-9)
            errs.append(abs(d.mean() - dist.mean()))
        assert errs[2] < errs[1] < errs[0]
        # The scheme assigns each cell its upper quantile (paper definition),
        # so the discrete mean overshoots by O(1/n) — ~1.6% at n=1000.
        assert errs[2] < 0.02
