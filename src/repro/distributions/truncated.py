"""Left-truncation combinator: the law of ``X | X > c``.

This is the information state of the online reservation process: after a
reservation of length ``c`` fails, the only thing learned is that the job's
execution time exceeds ``c`` — the remaining uncertainty is exactly the base
law conditioned on ``X > c``.  The adaptive replanner
(:mod:`repro.runtime.replanning`) re-derives strategies against this
combinator after every failure.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.distributions.base import Distribution, SupportError

__all__ = ["LeftTruncated"]


class LeftTruncated(Distribution):
    """``base`` conditioned on ``X > cut`` (support ``(cut, upper)``)."""

    name = "left_truncated"

    def __init__(self, base: Distribution, cut: float):
        cut = float(cut)
        lo, hi = base.support()
        if cut >= hi:
            raise SupportError(
                f"cannot truncate {base.describe()} at {cut} >= upper bound {hi}"
            )
        self.base = base
        self.cut = max(cut, lo)
        self._tail = float(base.sf(self.cut))
        if self._tail <= 0.0:
            raise SupportError(
                f"no probability mass beyond {cut} in {base.describe()}"
            )
        self.name = f"{base.name}|>{self.cut:g}"
        self._check_support()

    def support(self) -> Tuple[float, float]:
        return (self.cut, self.base.upper)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > self.cut, np.asarray(self.base.pdf(t)) / self._tail, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        body = (np.asarray(self.base.cdf(t)) - (1.0 - self._tail)) / self._tail
        out = np.clip(np.where(t > self.cut, body, 0.0), 0.0, 1.0)
        return out if out.ndim else float(out)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        body = np.asarray(self.base.sf(t)) / self._tail
        out = np.clip(np.where(t > self.cut, body, 1.0), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        base_q = (1.0 - self._tail) + q * self._tail
        out = np.maximum(np.asarray(self.base.quantile(base_q)), self.cut)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.base.conditional_expectation(self.cut)

    def conditional_expectation(self, tau: float) -> float:
        """Truncating twice composes: ``(X|X>c)|X>tau = X|X>max(c,tau)``."""
        return self.base.conditional_expectation(max(float(tau), self.cut))

    def second_moment(self) -> float:
        # Generic quadrature over the truncated survival (base class path),
        # restricted to the new support.
        return super().second_moment()

    def params(self) -> dict:
        """Nested token: the base law's canonical params plus the cut point."""
        return {
            "base": {"law": self.base.name, "params": self.base.params()},
            "cut": self.cut,
        }

    def describe(self) -> str:
        return f"LeftTruncated({self.base.describe()}, cut={self.cut:g})"
