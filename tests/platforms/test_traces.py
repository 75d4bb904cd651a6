"""Tests for the synthetic neuroscience traces (Fig. 1 substitute)."""

import numpy as np
import pytest

from repro.platforms.traces import (
    VBMQA_PARAMS,
    ApplicationTrace,
    generate_trace,
    vbmqa_distribution,
)


class TestVbmqaDistribution:
    def test_paper_parameters(self):
        d = vbmqa_distribution()
        assert (d.mu, d.sigma) == (7.1128, 0.2039)

    def test_paper_reported_moments(self):
        """Section 5.3: mean ~1253.37 s, std ~258.26 s."""
        d = vbmqa_distribution()
        assert d.mean() == pytest.approx(1253.37, abs=1.0)
        assert d.std() == pytest.approx(258.26, abs=1.0)


class TestGenerateTrace:
    def test_basic(self):
        t = generate_trace("vbmqa", n_runs=500, seed=0)
        assert t.n_runs == 500
        assert t.application == "vbmqa"
        assert np.all(t.runtimes_seconds > 0)

    def test_case_insensitive(self):
        t = generate_trace("VBMQA", n_runs=10, seed=0)
        assert t.application == "vbmqa"

    def test_fmriqa_known(self):
        t = generate_trace("fmriqa", n_runs=100, seed=1)
        assert t.application == "fmriqa"

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown application"):
            generate_trace("dtiqa")

    @pytest.mark.parametrize("kwargs", [{"n_runs": 1}, {"outlier_fraction": 0.6}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            generate_trace("vbmqa", **kwargs)

    def test_reproducible(self):
        a = generate_trace("vbmqa", n_runs=50, seed=7)
        b = generate_trace("vbmqa", n_runs=50, seed=7)
        np.testing.assert_array_equal(a.runtimes_seconds, b.runtimes_seconds)

    def test_fit_recovers_parameters(self):
        t = generate_trace("vbmqa", n_runs=20_000, seed=2)
        fit = t.fit()
        assert fit.mu == pytest.approx(VBMQA_PARAMS["mu"], abs=0.01)
        assert fit.sigma == pytest.approx(VBMQA_PARAMS["sigma"], abs=0.01)

    def test_outliers_inflate_fit_sigma(self):
        clean = generate_trace("vbmqa", n_runs=5000, seed=3).fit()
        dirty = generate_trace(
            "vbmqa", n_runs=5000, outlier_fraction=0.1, seed=3
        ).fit()
        assert dirty.sigma > clean.sigma

    def test_outliers_still_fit_roughly(self):
        dirty = generate_trace("vbmqa", n_runs=5000, outlier_fraction=0.02, seed=4)
        fit = dirty.fit()
        assert fit.mu == pytest.approx(VBMQA_PARAMS["mu"], abs=0.05)


class TestApplicationTrace:
    def test_hours_conversion(self):
        t = ApplicationTrace("vbmqa", np.array([3600.0, 7200.0]))
        np.testing.assert_allclose(t.runtimes_hours(), [1.0, 2.0])

    def test_histogram_density(self):
        t = generate_trace("vbmqa", n_runs=2000, seed=5)
        density, edges = t.histogram(bins=30)
        assert density.shape == (30,)
        assert edges.shape == (31,)
        widths = np.diff(edges)
        assert float((density * widths).sum()) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "runtimes", [np.array([]), np.array([1.0, -2.0]), np.zeros(3)]
    )
    def test_validation(self, runtimes):
        with pytest.raises(ValueError):
            ApplicationTrace("x", runtimes)
