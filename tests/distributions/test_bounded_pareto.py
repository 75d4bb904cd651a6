"""Closed-form tests for BoundedPareto (Table 5, Theorem 13)."""

import pytest
from scipy import integrate

from repro.distributions import BoundedPareto
from repro.distributions.base import SupportError


class TestConstruction:
    def test_paper_instance(self):
        d = BoundedPareto()
        assert (d.low, d.high, d.alpha) == (1.0, 20.0, 2.1)

    @pytest.mark.parametrize("L,H,a", [(0.0, 2.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 0.0)])
    def test_invalid(self, L, H, a):
        with pytest.raises(ValueError):
            BoundedPareto(L, H, a)


class TestClosedForms:
    def test_mean_formula(self):
        L, H, a = 1.0, 20.0, 2.1
        d = BoundedPareto(L, H, a)
        expected = (a / (a - 1)) * (H**a * L - H * L**a) / (H**a - L**a)
        assert d.mean() == pytest.approx(expected)

    def test_mean_alpha_one_limit(self):
        """alpha = 1 limit exists and is continuous."""
        d1 = BoundedPareto(1.0, 20.0, 1.0)
        d_near = BoundedPareto(1.0, 20.0, 1.0 + 1e-7)
        assert d1.mean() == pytest.approx(d_near.mean(), rel=1e-4)

    def test_second_moment_alpha_two_limit(self):
        d2 = BoundedPareto(1.0, 20.0, 2.0)
        d_near = BoundedPareto(1.0, 20.0, 2.0 + 1e-7)
        assert d2.second_moment() == pytest.approx(d_near.second_moment(), rel=1e-4)

    def test_cdf_boundaries(self):
        d = BoundedPareto(1.0, 20.0, 2.1)
        assert float(d.cdf(1.0)) == pytest.approx(0.0)
        assert float(d.cdf(20.0)) == pytest.approx(1.0)

    def test_quantile_table5(self):
        d = BoundedPareto(1.0, 20.0, 2.1)
        for q in [0.1, 0.5, 0.9]:
            L, H, a = 1.0, 20.0, 2.1
            expected = L / (1.0 - (1.0 - (L / H) ** a) * q) ** (1.0 / a)
            assert float(d.quantile(q)) == pytest.approx(expected, rel=1e-12)

    def test_mass_integrates_to_one(self):
        d = BoundedPareto(1.0, 20.0, 2.1)
        total, _ = integrate.quad(d.pdf, 1.0, 20.0)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestConditionalExpectation:
    def test_theorem13(self):
        L, H, a = 1.0, 20.0, 2.1
        d = BoundedPareto(L, H, a)
        tau = 5.0
        expected = (a / (a - 1)) * (H ** (1 - a) - tau ** (1 - a)) / (
            H ** (-a) - tau ** (-a)
        )
        assert d.conditional_expectation(tau) == pytest.approx(expected, rel=1e-12)

    def test_bounded_above_by_high(self):
        d = BoundedPareto(1.0, 20.0, 2.1)
        for tau in [2.0, 10.0, 19.9]:
            assert tau < d.conditional_expectation(tau) < 20.0

    def test_at_high_raises(self):
        with pytest.raises(SupportError):
            BoundedPareto(1.0, 20.0, 2.1).conditional_expectation(20.0)

    def test_alpha_one_limit(self):
        got = BoundedPareto(1.0, 20.0, 1.0).conditional_expectation(5.0)
        near = BoundedPareto(1.0, 20.0, 1.0 + 1e-7).conditional_expectation(5.0)
        assert got == pytest.approx(near, rel=1e-4)
