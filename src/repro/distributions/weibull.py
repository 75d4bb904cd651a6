"""Weibull distribution ``Weibull(scale, shape)`` (Table 1 / Table 5).

The paper instantiates a heavy-tailed case (``shape = 0.5``), which is the
slowest-converging law in Table 4 — the discretization heuristics need large
``n`` to capture its tail.  The MEAN-BY-MEAN recursion (Theorem 6) is

``E[X | X > tau] = scale * e^{(tau/scale)^k} * Gamma(1 + 1/k, (tau/scale)^k)``

and is evaluated through the log-space incomplete-gamma helper to avoid the
overflow of ``e^{x}`` against the underflow of ``Gamma(s, x)``.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.special import exp_scaled_upper_gamma

__all__ = ["Weibull"]


class Weibull(Distribution):
    """``Weibull(scale, shape)`` with CDF ``1 - exp(-(t/scale)^shape)``."""

    name = "weibull"

    def __init__(self, scale: float = 1.0, shape: float = 0.5):
        if scale <= 0:
            raise ValueError(f"weibull scale must be positive, got {scale}")
        if shape <= 0:
            raise ValueError(f"weibull shape must be positive, got {shape}")
        self.scale = float(scale)
        self.shape = float(shape)
        self._check_support()

    def support(self) -> Tuple[float, float]:
        return (0.0, math.inf)

    def _z(self, t: np.ndarray) -> np.ndarray:
        return np.power(np.maximum(t, 0.0) / self.scale, self.shape)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        k, lam = self.shape, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = np.maximum(t, 0.0)
            body = (k / lam) * np.power(tt / lam, k - 1.0) * np.exp(-self._z(tt))
        # shape < 1 diverges at 0; report +inf there, 0 for negative t.
        out = np.where(t > 0.0, body, np.where(t == 0.0, body, 0.0))  # repro-lint: disable=RS102 -- exact support endpoint
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0.0, -np.expm1(-self._z(t)), 0.0)
        return out if out.ndim else float(out)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0.0, np.exp(-self._z(t)), 1.0)
        return out if out.ndim else float(out)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        # q = 1 maps to +inf (unbounded support); silence the log(0) warning
        # rather than let callers trip on it at the boundary.
        with np.errstate(divide="ignore"):
            out = self.scale * np.power(-np.log1p(-q), 1.0 / self.shape)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def second_moment(self) -> float:
        return self.scale**2 * math.gamma(1.0 + 2.0 / self.shape)

    def var(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1 * g1)

    def conditional_expectation(self, tau: float) -> float:
        """Theorem 6 closed form, in log space for tail stability."""
        tau = float(tau)
        if tau <= 0.0:
            return self.mean()
        x = (tau / self.scale) ** self.shape
        return self.scale * exp_scaled_upper_gamma(1.0 + 1.0 / self.shape, x)

    def params(self) -> dict:
        return {"scale": self.scale, "shape": self.shape}

    def describe(self) -> str:
        return f"Weibull(scale={self.scale:g}, shape={self.shape:g})"
