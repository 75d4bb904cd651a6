"""Empirical execution-time distribution built from raw trace samples.

The paper fits a parametric LogNormal to the neuroscience traces; in
practice the fit can be misspecified (multi-modal pipelines, contaminated
traces).  This class lets every strategy run *directly on the data*:

* CDF — the empirical distribution function, linearly interpolated between
  order statistics (so it is continuous and strictly increasing on the
  sample range);
* quantile — the exact inverse of that interpolation;
* pdf — a Gaussian kernel-density estimate (Silverman bandwidth by
  default), needed only by the Eq. (11) recurrence;
* tail — samples bound the support above by ``max * (1 + tail_margin)``:
  an empirical law cannot extrapolate, so the support is finite and
  strategies close their sequences at that bound.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import stats

from repro.distributions.base import Distribution

__all__ = ["EmpiricalDistribution"]


class EmpiricalDistribution(Distribution):
    """Distribution interpolated from observed samples."""

    name = "empirical"

    def __init__(
        self,
        samples,
        tail_margin: float = 0.05,
        bandwidth: str | float = "silverman",
    ):
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.ndim != 1 or samples.size < 10:
            raise ValueError(
                f"need at least 10 one-dimensional samples, got shape "
                f"{samples.shape}"
            )
        if np.any(samples < 0):
            raise ValueError("execution times must be nonnegative")
        if samples[0] == samples[-1]:
            raise ValueError("degenerate trace: all samples equal")
        if tail_margin < 0:
            raise ValueError(f"tail margin must be nonnegative, got {tail_margin}")
        self.samples = samples
        self.tail_margin = float(tail_margin)
        self.bandwidth = bandwidth
        self._n = samples.size
        # Support: [min sample, max sample * (1 + margin)] — the margin gives
        # the final reservation headroom over the observed worst case.
        self._lo = float(samples[0])
        self._hi = float(samples[-1]) * (1.0 + tail_margin)
        # Interpolation nodes: F(x_(i)) = i/(n+1) (Weibull plotting position),
        # pinned to 0 at the lower support edge and 1 at the upper.
        self._xs = np.concatenate([[self._lo], samples, [self._hi]])
        ps = np.arange(1, self._n + 1) / (self._n + 1.0)
        self._ps = np.concatenate([[0.0], ps, [1.0]])
        # Deduplicate repeated sample values for a strictly increasing grid.
        keep = np.concatenate([[True], np.diff(self._xs) > 0])
        # Merged nodes keep the *largest* probability (right-continuous ECDF).
        xs, ps_out = [], []
        for x, p, k in zip(self._xs, self._ps, keep):
            if k:
                xs.append(x)
                ps_out.append(p)
            else:
                ps_out[-1] = max(ps_out[-1], p)
        self._xs = np.asarray(xs)
        self._ps = np.asarray(ps_out)
        self._kde = stats.gaussian_kde(samples, bw_method=bandwidth)
        self._check_support()

    def support(self) -> Tuple[float, float]:
        return (self._lo, self._hi)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._xs, self._ps, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        out = np.interp(q, self._ps, self._xs)
        return out if out.ndim else float(out)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        body = self._kde(np.atleast_1d(t))
        body = body.reshape(t.shape) if t.ndim else float(body[0])
        inside = (t >= self._lo) & (t <= self._hi)
        out = np.where(inside, body, 0.0)
        return out if out.ndim else float(out)

    # Moments straight from the samples (fast and exact for the ECDF).
    def mean(self) -> float:
        return float(self.samples.mean())

    def second_moment(self) -> float:
        return float(np.mean(self.samples**2))

    def var(self) -> float:
        return float(self.samples.var())

    def conditional_expectation(self, tau: float) -> float:
        """Conditional mean above ``tau``.

        Below the largest observation this is the sample mean of the
        exceedances (fast, exact for the ECDF).  Beyond it, the interpolated
        law is uniform on the synthetic top cell ``(max sample, hi]``, so the
        conditional mean falls back to the base class's quadrature over the
        interpolated survival function.
        """
        tau = float(tau)
        if tau < self._lo:
            return self.mean()
        above = self.samples[self.samples > tau]
        if above.size == 0:
            # Inside the synthetic top cell: integrate the interpolated CDF.
            return super().conditional_expectation(tau)
        # Blend the observed exceedances with the top cell's mass (the
        # plotting-position CDF leaves ~1/(n+1) probability above the
        # largest sample, spread uniformly up to hi).
        top_mass = 1.0 - float(self.cdf(self.samples[-1]))
        obs_mass = float(self.sf(tau)) - top_mass
        if obs_mass <= 0.0:
            return super().conditional_expectation(tau)
        top_mean = 0.5 * (float(self.samples[-1]) + self._hi)
        total = obs_mass + top_mass
        return float((above.mean() * obs_mass + top_mean * top_mass) / total)

    def rvs(self, size: int, seed=None) -> np.ndarray:
        """Bootstrap-with-interpolation: inverse-transform through the
        interpolated ECDF (smoother than a plain resample)."""
        return super().rvs(size, seed=seed)

    def params(self) -> dict:
        """Content identity: the sorted trace itself plus the two knobs.

        Samples are stored sorted, so two traces with the same multiset of
        runtimes produce the same params (and hence the same cache key)
        regardless of observation order.
        """
        return {
            "samples": self.samples,
            "tail_margin": self.tail_margin,
            "bandwidth": self.bandwidth,
        }

    def describe(self) -> str:
        return (
            f"Empirical(n={self._n}, range=[{self._lo:g}, {self._hi:g}], "
            f"mean={self.mean():.4g})"
        )
