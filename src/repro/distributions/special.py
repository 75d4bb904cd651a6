"""Numerically stable special-function helpers for the Appendix B formulas.

The MEAN-BY-MEAN recursions (Table 6 in the paper) involve ratios such as
``e^x * Gamma(s, x)`` and Gaussian Mills ratios ``phi(z) / (1 - Phi(z))``.
Evaluated naively these overflow/underflow a few reservations into the
sequence (the survival probabilities decay exponentially fast), so we work in
log space throughout and switch to asymptotic expansions when SciPy's
regularized incomplete gamma underflows.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "log_upper_gamma",
    "exp_scaled_upper_gamma",
    "normal_hazard",
    "log_normal_sf_ratio",
]


def log_upper_gamma(s: float, x: float) -> float:
    """Return ``log Gamma(s, x)`` (upper incomplete gamma), stable for large x.

    For moderate ``x`` this is ``log(gammaincc(s, x)) + gammaln(s)``.  Once
    ``gammaincc`` underflows (x >> s), we use the continued-fraction/asymptotic
    expansion ``Gamma(s, x) ~ x^{s-1} e^{-x} * sum_k prod_{j<k} (s-1-j)/x``.
    """
    if x < 0:
        raise ValueError(f"upper incomplete gamma needs x >= 0, got {x}")
    if x == 0.0:  # repro-lint: disable=RS102 -- exact x=0 special case
        return float(special.gammaln(s))
    q = float(special.gammaincc(s, x))
    if q > 0.0 and math.isfinite(q):
        return math.log(q) + float(special.gammaln(s))
    # Asymptotic series for x large relative to s.
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= (s - k) / x
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    total = max(total, 1e-300)
    return (s - 1.0) * math.log(x) - x + math.log(total)


def exp_scaled_upper_gamma(s: float, x: float) -> float:
    """Return ``e^x * Gamma(s, x)`` without overflow.

    This is the quantity appearing in the Weibull and Gamma MEAN-BY-MEAN
    recursions (Theorems 6-7): the conditional expectation stays finite even
    when both factors are astronomically large/small.
    """
    return math.exp(x + log_upper_gamma(s, x))


def normal_hazard(z: float) -> float:
    """Gaussian hazard (inverse Mills ratio) ``phi(z) / (1 - Phi(z))``.

    Stable for large ``z`` via ``exp(log phi(z) - log Phi(-z))``; the
    asymptotic behaviour ``~ z`` is recovered to machine precision.
    """
    log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    log_sf = float(special.log_ndtr(-z))
    return math.exp(log_phi - log_sf)


def log_normal_sf_ratio(z_num: float, z_den: float) -> float:
    """Return ``Phi(-z_num) / Phi(-z_den)`` computed in log space.

    Used by the LogNormal conditional expectation (Theorem 8), where both
    survival probabilities can underflow independently although their ratio
    is of order one.
    """
    return math.exp(float(special.log_ndtr(-z_num)) - float(special.log_ndtr(-z_den)))
