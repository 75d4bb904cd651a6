"""Contract tests every distribution must satisfy (runs over all nine laws).

These validate the closed forms of Table 5 / Appendix B against generic
numerics: CDF/quantile inversion, moment identities via survival-function
integration, conditional expectations versus quadrature, and sampling
consistency.  ``TestProtocol`` checks, class by class, that every
registered law implements the protocol the planner, the plan-cache key and
the Monte-Carlo kernel call, with base-compatible signatures.
"""

import inspect
import math

import numpy as np
import pytest
from scipy import integrate

from repro.distributions.base import Distribution, SupportError
from repro.distributions.exponential import Exponential
from repro.distributions.registry import DISTRIBUTION_FACTORIES

#: method -> positional arguments (after ``self``) it must accept.  Extra
#: parameters are allowed when they have defaults (``rvs``'s ``seed``).
PROTOCOL = {
    "support": 0,
    "pdf": 1,
    "cdf": 1,
    "sf": 1,
    "quantile": 1,
    "mean": 0,
    "var": 0,
    "rvs": 1,
    "params": 0,
}


def protocol_violations(cls):
    """Why ``cls`` breaks the distribution protocol (empty if it does not).

    ``getattr`` alone would find an abstract base method and pass, so a
    missing method shows up in ``__abstractmethods__`` instead.
    """
    problems = [
        f"`{name}` is abstract"
        for name in sorted(getattr(cls, "__abstractmethods__", ()))
    ]
    for name, n_args in PROTOCOL.items():
        method = getattr(cls, name, None)
        if method is None:
            problems.append(f"`{name}` is missing")
            continue
        try:
            inspect.signature(method).bind(*range(n_args + 1))
        except TypeError:
            problems.append(f"`{name}` cannot take {n_args} positional args")
    return problems


def _probe_points(dist, n=7):
    """Interior probe points spread across the distribution's mass."""
    qs = np.linspace(0.05, 0.95, n)
    return np.asarray(dist.quantile(qs), dtype=float)


class TestSupport:
    def test_support_is_nonnegative_interval(self, any_distribution):
        lo, hi = any_distribution.support()
        assert 0.0 <= lo < hi

    def test_is_bounded_flag(self, any_distribution):
        lo, hi = any_distribution.support()
        assert any_distribution.is_bounded == math.isfinite(hi)

    def test_lower_upper_properties(self, any_distribution):
        lo, hi = any_distribution.support()
        assert any_distribution.lower == lo
        assert any_distribution.upper == hi


class TestCdfPdf:
    def test_cdf_zero_below_support(self, any_distribution):
        lo, _ = any_distribution.support()
        if lo > 0:
            assert float(any_distribution.cdf(lo * 0.5)) == pytest.approx(0.0, abs=1e-12)
        assert float(any_distribution.cdf(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_cdf_monotone(self, any_distribution):
        ts = _probe_points(any_distribution, 25)
        cdf = np.asarray(any_distribution.cdf(ts))
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_cdf_plus_sf_is_one(self, any_distribution):
        ts = _probe_points(any_distribution)
        total = np.asarray(any_distribution.cdf(ts)) + np.asarray(
            any_distribution.sf(ts)
        )
        np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_pdf_nonnegative(self, any_distribution):
        ts = _probe_points(any_distribution, 25)
        assert np.all(np.asarray(any_distribution.pdf(ts)) >= 0.0)

    def test_pdf_zero_outside_support(self, any_distribution):
        lo, hi = any_distribution.support()
        if lo > 0:
            assert float(any_distribution.pdf(lo / 2.0)) == 0.0
        if math.isfinite(hi):
            assert float(any_distribution.pdf(hi * 1.5)) == 0.0

    def test_pdf_integrates_to_one(self, any_distribution):
        lo, hi = any_distribution.support()
        upper = hi if math.isfinite(hi) else float(any_distribution.quantile(1 - 1e-10))
        mass, _ = integrate.quad(any_distribution.pdf, lo, upper, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_pdf_is_cdf_derivative(self, any_distribution):
        ts = _probe_points(any_distribution)
        h = 1e-6 * max(1.0, float(np.max(ts)))
        for t in ts:
            numeric = (
                float(any_distribution.cdf(t + h)) - float(any_distribution.cdf(t - h))
            ) / (2 * h)
            assert numeric == pytest.approx(
                float(any_distribution.pdf(t)), rel=2e-3, abs=1e-8
            )


class TestQuantile:
    def test_inverts_cdf(self, any_distribution):
        for q in [0.01, 0.1, 0.5, 0.9, 0.999]:
            t = float(any_distribution.quantile(q))
            assert float(any_distribution.cdf(t)) == pytest.approx(q, abs=1e-8)

    def test_monotone(self, any_distribution):
        qs = np.linspace(0.01, 0.99, 21)
        ts = np.asarray(any_distribution.quantile(qs))
        assert np.all(np.diff(ts) > 0)

    def test_endpoints(self, any_distribution):
        lo, hi = any_distribution.support()
        assert float(any_distribution.quantile(0.0)) == pytest.approx(lo, abs=1e-9)
        if math.isfinite(hi):
            assert float(any_distribution.quantile(1.0)) == pytest.approx(hi, rel=1e-9)

    def test_out_of_range_raises(self, any_distribution):
        with pytest.raises(ValueError):
            any_distribution.quantile(-0.1)
        with pytest.raises(ValueError):
            any_distribution.quantile(1.1)

    def test_median_is_half_quantile(self, any_distribution):
        assert any_distribution.median() == pytest.approx(
            float(any_distribution.quantile(0.5))
        )


class TestMoments:
    def test_mean_matches_sf_integral(self, any_distribution):
        lo, hi = any_distribution.support()
        upper = hi if math.isfinite(hi) else float(any_distribution.quantile(1 - 1e-12))
        tail, _ = integrate.quad(any_distribution.sf, lo, upper, limit=300)
        assert any_distribution.mean() == pytest.approx(lo + tail, rel=1e-5)

    def test_second_moment_matches_integral(self, any_distribution):
        lo, hi = any_distribution.support()
        upper = hi if math.isfinite(hi) else float(any_distribution.quantile(1 - 1e-13))
        val, _ = integrate.quad(
            lambda t: t * t * any_distribution.pdf(t), lo, upper, limit=300
        )
        assert any_distribution.second_moment() == pytest.approx(val, rel=1e-4)

    def test_variance_consistent(self, any_distribution):
        m, s2 = any_distribution.mean(), any_distribution.var()
        assert s2 > 0
        assert any_distribution.second_moment() == pytest.approx(s2 + m * m, rel=1e-9)

    def test_std_is_sqrt_var(self, any_distribution):
        assert any_distribution.std() == pytest.approx(
            math.sqrt(any_distribution.var())
        )

    def test_mean_inside_support(self, any_distribution):
        lo, hi = any_distribution.support()
        assert lo < any_distribution.mean() < hi


class TestConditionalExpectation:
    def test_exceeds_tau(self, any_distribution):
        for t in _probe_points(any_distribution, 5):
            assert any_distribution.conditional_expectation(float(t)) > float(t)

    def test_at_or_below_lower_is_mean(self, any_distribution):
        lo, _ = any_distribution.support()
        got = any_distribution.conditional_expectation(lo * 0.5 if lo > 0 else -1.0)
        assert got == pytest.approx(any_distribution.mean())

    def test_monotone_in_tau(self, any_distribution):
        ts = _probe_points(any_distribution, 9)
        vals = [any_distribution.conditional_expectation(float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature(self, any_distribution):
        """Closed forms (Appendix B / Table 6) agree with direct integration."""
        lo, hi = any_distribution.support()
        for q in [0.2, 0.5, 0.8]:
            tau = float(any_distribution.quantile(q))
            upper = hi if math.isfinite(hi) else float(
                any_distribution.quantile(1 - 1e-13)
            )
            num, _ = integrate.quad(
                lambda t: t * any_distribution.pdf(t), tau, upper, limit=300
            )
            expected = num / float(any_distribution.sf(tau))
            got = any_distribution.conditional_expectation(tau)
            assert got == pytest.approx(expected, rel=1e-5)

    def test_beyond_bounded_support_raises(self, bounded_distribution):
        hi = bounded_distribution.upper
        with pytest.raises(SupportError):
            bounded_distribution.conditional_expectation(hi * 1.01)


class TestSampling:
    def test_shape_and_support(self, any_distribution, rng):
        x = any_distribution.rvs(500, seed=rng)
        lo, hi = any_distribution.support()
        assert x.shape == (500,)
        assert np.all(x >= lo - 1e-9)
        if math.isfinite(hi):
            assert np.all(x <= hi + 1e-9)

    def test_reproducible(self, any_distribution):
        a = any_distribution.rvs(50, seed=99)
        b = any_distribution.rvs(50, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_true_mean(self, any_distribution):
        x = any_distribution.rvs(40_000, seed=3)
        se = any_distribution.std() / math.sqrt(x.size)
        assert abs(float(x.mean()) - any_distribution.mean()) < 6 * se

    def test_sample_cdf_uniform(self, any_distribution):
        """KS statistic of samples against the law itself is small."""
        from repro.distributions.fitting import ks_distance

        x = any_distribution.rvs(5000, seed=11)
        assert ks_distance(x, any_distribution) < 0.03

    def test_bad_size_raises(self, any_distribution):
        with pytest.raises(ValueError):
            any_distribution.rvs(0)


class TestDescribe:
    def test_describe_mentions_name(self, any_distribution):
        text = any_distribution.describe()
        assert isinstance(text, str) and len(text) > 0

    def test_repr_contains_class(self, any_distribution):
        assert type(any_distribution).__name__ in repr(any_distribution)


class TestProtocol:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTION_FACTORIES))
    def test_registered_law_implements_protocol(self, name):
        assert protocol_violations(DISTRIBUTION_FACTORIES[name]) == []

    def test_missing_method_is_reported(self):
        class NoQuantile(Distribution):
            def support(self):
                return 0.0, 1.0

            def pdf(self, t):
                return 1.0

            def cdf(self, t):
                return t

        assert protocol_violations(NoQuantile) == ["`quantile` is abstract"]

    def test_narrowed_signature_is_reported(self):
        class Narrow(Exponential):
            def pdf(self, t, extra):
                return super().pdf(t)

        assert protocol_violations(Narrow) == [
            "`pdf` cannot take 1 positional args"
        ]

    def test_extra_defaulted_parameters_are_allowed(self):
        class Wide(Exponential):
            def quantile(self, q, method="exact"):
                return super().quantile(q)

        assert protocol_violations(Wide) == []
