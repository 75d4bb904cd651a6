"""Closed-form tests for Beta (Table 5, Theorem 12)."""

import math

import pytest
from scipy import special, stats

from repro.distributions import Beta
from repro.distributions.base import SupportError


class TestConstruction:
    def test_paper_instance(self):
        d = Beta()
        assert (d.alpha, d.beta) == (2.0, 2.0)

    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (2.0, 0.0), (-1.0, 1.0)])
    def test_invalid(self, a, b):
        with pytest.raises(ValueError):
            Beta(a, b)


class TestClosedForms:
    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (0.5, 0.5), (5.0, 1.0)])
    def test_moments(self, a, b):
        d = Beta(a, b)
        assert d.mean() == pytest.approx(a / (a + b))
        assert d.var() == pytest.approx(a * b / ((a + b) ** 2 * (a + b + 1)))

    def test_symmetric_median(self):
        assert Beta(2.0, 2.0).median() == pytest.approx(0.5)

    def test_pdf_matches_scipy(self):
        d = Beta(2.0, 2.0)
        ref = stats.beta(2.0, 2.0)
        for t in [0.1, 0.5, 0.9]:
            assert float(d.pdf(t)) == pytest.approx(ref.pdf(t), rel=1e-10)

    def test_uniform_special_case(self):
        """Beta(1,1) is Uniform(0,1) — check pdf is 1 on (0,1)."""
        d = Beta(1.0, 1.0)
        assert float(d.pdf(0.3)) == pytest.approx(1.0)
        assert d.mean() == pytest.approx(0.5)

    def test_edge_density_behaviour(self):
        assert float(Beta(2.0, 2.0).pdf(0.0)) == 0.0
        assert float(Beta(2.0, 2.0).pdf(1.0)) == 0.0
        assert math.isinf(float(Beta(0.5, 0.5).pdf(0.0)))
        assert math.isinf(float(Beta(0.5, 0.5).pdf(1.0)))


class TestConditionalExpectation:
    def test_theorem12_ratio_form(self):
        d = Beta(2.0, 2.0)
        tau = 0.4
        num = special.beta(3.0, 2.0) - special.betainc(3.0, 2.0, tau) * special.beta(3.0, 2.0)
        den = special.beta(2.0, 2.0) - special.betainc(2.0, 2.0, tau) * special.beta(2.0, 2.0)
        assert d.conditional_expectation(tau) == pytest.approx(num / den, rel=1e-10)

    def test_stays_below_one(self):
        d = Beta(2.0, 2.0)
        for tau in [0.5, 0.9, 0.999]:
            got = d.conditional_expectation(tau)
            assert tau < got < 1.0

    def test_at_one_raises(self):
        with pytest.raises(SupportError):
            Beta(2.0, 2.0).conditional_expectation(1.0)
