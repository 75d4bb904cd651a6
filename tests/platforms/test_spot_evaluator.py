"""Tests for the interruption-aware spot cost evaluator.

The load-bearing checks are the *differential contract*: in the constant-
price memoryless regime (OU volatility 0, constant hazard) the Monte-Carlo
evaluator must agree with the scalar closed forms within a z=4 confidence
interval.  A fixed seed reproduces the estimate bit for bit; one
checkpointed answer is pinned in ``tests/simulation/test_pooled_mc.py``.
"""

import pytest

from repro import LogNormal
from repro.platforms.spot import (
    ConstantHazard,
    ConstantPrice,
    LinearPriceHazard,
    OUPriceProcess,
    SpotScenario,
    expected_spot_busy_time,
    expected_spot_cost,
    expected_spot_time_checkpointed,
    expected_spot_time_restart,
    spot_monte_carlo_cost,
)

PRICE = 0.3


def _scenario(rate=0.8, overhead=0.05, step=0.05, **kwargs):
    return SpotScenario(
        price=ConstantPrice(PRICE),
        hazard=ConstantHazard(rate),
        checkpoint_overhead=overhead,
        step=step,
        **kwargs,
    )


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            _scenario(overhead=-0.1)
        with pytest.raises(ValueError):
            _scenario(step=0.0)
        with pytest.raises(ValueError):
            _scenario(max_steps=0)

    def test_certainty_equivalent(self):
        scenario = SpotScenario(
            price=OUPriceProcess(mean=0.4, volatility=0.1),
            hazard=LinearPriceHazard(
                base_rate=0.2, sensitivity=1.0, reference_price=0.3
            ),
        )
        price, rate = scenario.certainty_equivalent()
        assert price == pytest.approx(0.4)
        assert rate == pytest.approx(0.2 + 1.0 * (0.4 - 0.3))


class TestResult:
    def test_confidence_interval(self):
        res = spot_monte_carlo_cost(1.0, _scenario(), n_paths=200, seed=0)
        lo, hi = res.confidence_interval(z=4.0)
        assert lo < res.mean_cost < hi
        assert hi - lo == pytest.approx(8.0 * res.std_error)


class TestValidation:
    def test_recovery_modes(self):
        s = _scenario()
        with pytest.raises(ValueError, match="n_paths"):
            spot_monte_carlo_cost(1.0, s, n_paths=0)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            spot_monte_carlo_cost(1.0, s, recovery="restart", checkpoint_interval=0.5)
        with pytest.raises(ValueError, match="positive checkpoint_interval"):
            spot_monte_carlo_cost(1.0, s, recovery="checkpoint")
        with pytest.raises(ValueError, match="unknown recovery"):
            spot_monte_carlo_cost(1.0, s, recovery="resume")

    def test_unfinished_paths_raise(self):
        slow = _scenario(rate=5.0, max_steps=10)
        with pytest.raises(RuntimeError, match="unfinished"):
            spot_monte_carlo_cost(4.0, slow, n_paths=16, seed=0)


class TestDifferentialContract:
    """Satellite: MC with OU volatility 0 + constant hazard agrees with the
    closed forms within z=4 — a statistics check, not a tolerance check,
    because the interruption draws are exact inverse transforms."""

    def test_restart_fixed_length(self):
        job, rate = 1.5, 0.8
        scenario = SpotScenario(
            price=OUPriceProcess(mean=PRICE, reversion=1.0, volatility=0.0),
            hazard=ConstantHazard(rate),
            checkpoint_overhead=0.0,
            step=0.05,
        )
        mc = spot_monte_carlo_cost(job, scenario, n_paths=4000, seed=42)
        closed = PRICE * expected_spot_time_restart(job, rate)
        assert abs(mc.mean_cost - closed) <= 4.0 * mc.std_error
        assert mc.mean_busy_time == pytest.approx(mc.mean_cost / PRICE, rel=1e-12)

    def test_checkpointed_fixed_length(self):
        job, rate, tau, overhead = 2.0, 0.8, 0.5, 0.05
        scenario = SpotScenario(
            price=OUPriceProcess(mean=PRICE, reversion=1.0, volatility=0.0),
            hazard=ConstantHazard(rate),
            checkpoint_overhead=overhead,
            step=0.05,
        )
        mc = spot_monte_carlo_cost(
            job,
            scenario,
            recovery="checkpoint",
            checkpoint_interval=tau,
            n_paths=4000,
            seed=7,
        )
        closed = PRICE * expected_spot_time_checkpointed(job, rate, tau, overhead)
        assert abs(mc.mean_cost - closed) <= 4.0 * mc.std_error
        assert mc.mean_interruptions > 0.0

    def test_marginalized_vs_quadrature(self):
        d = LogNormal(0.0, 0.4)  # ~1.1h jobs
        rate, tau, overhead = 0.6, 0.4, 0.05
        scenario = _scenario(rate=rate, overhead=overhead)
        mc = spot_monte_carlo_cost(
            d,
            scenario,
            recovery="checkpoint",
            checkpoint_interval=tau,
            n_paths=4000,
            seed=11,
        )
        quad = expected_spot_cost(
            d, PRICE, rate, checkpoint_interval=tau, checkpoint_overhead=overhead
        )
        assert abs(mc.mean_cost - quad) <= 4.0 * mc.std_error

    def test_zero_hazard_is_deterministic(self):
        scenario = _scenario(rate=0.0)
        mc = spot_monte_carlo_cost(1.25, scenario, n_paths=64, seed=0)
        assert mc.mean_cost == pytest.approx(PRICE * 1.25, rel=1e-9)
        assert mc.std_error == pytest.approx(0.0, abs=1e-6)
        assert mc.mean_interruptions == 0.0

    def test_ou_vol0_bit_identical_to_constant_price(self):
        # The OU step draws no normals at volatility 0, so the RNG streams
        # align and the two results are bit-identical, not just close.
        kwargs = dict(
            recovery="checkpoint", checkpoint_interval=0.5, n_paths=500, seed=3
        )
        const = spot_monte_carlo_cost(2.0, _scenario(), **kwargs)
        ou = spot_monte_carlo_cost(
            2.0,
            SpotScenario(
                price=OUPriceProcess(mean=PRICE, reversion=1.0, volatility=0.0),
                hazard=ConstantHazard(0.8),
                checkpoint_overhead=0.05,
                step=0.05,
            ),
            **kwargs,
        )
        assert const == ou


class TestQuadrature:
    def test_restart_exponential_closed_form(self):
        # Exponential(r) jobs under hazard lam < r: E[busy] = 1/(r - lam).
        from repro import Exponential

        r, lam = 2.0, 0.5
        got = expected_spot_busy_time(Exponential(r), lam)
        assert got == pytest.approx(1.0 / (r - lam), rel=1e-6)

    def test_zero_rate_is_the_mean(self):
        d = LogNormal(0.0, 0.4)
        assert expected_spot_busy_time(d, 0.0) == pytest.approx(d.mean(), rel=1e-6)
        assert expected_spot_busy_time(
            d, 0.0, checkpoint_interval=0.5, checkpoint_overhead=0.0
        ) == pytest.approx(d.mean(), rel=1e-6)

    def test_huge_interval_is_restart(self):
        d = LogNormal(0.0, 0.4)
        restart = expected_spot_busy_time(d, 0.6)
        one_segment = expected_spot_busy_time(
            d, 0.6, checkpoint_interval=1e6, checkpoint_overhead=0.3
        )
        assert one_segment == pytest.approx(restart, rel=1e-9)

    def test_checkpointing_helps(self):
        d = LogNormal(1.5, 0.4)  # ~4.9h jobs
        rate = 1.0
        restart = expected_spot_busy_time(d, rate)
        ckpt = expected_spot_busy_time(
            d, rate, checkpoint_interval=0.5, checkpoint_overhead=0.05
        )
        assert ckpt < restart / 10.0

    def test_work_cap(self):
        d = LogNormal(0.0, 0.4)
        kwargs = dict(checkpoint_interval=0.4, checkpoint_overhead=0.05)
        assert expected_spot_busy_time(d, 0.5, work_cap=0.0, **kwargs) == 0.0
        full = expected_spot_busy_time(d, 0.5, **kwargs)
        caps = [0.4, 0.8, 1.6, 6.4, 25.6]
        vals = [
            expected_spot_busy_time(d, 0.5, work_cap=c, **kwargs) for c in caps
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(full, rel=1e-6)
        assert vals[0] < full

    def test_work_cap_requires_checkpointing(self):
        with pytest.raises(ValueError, match="work_cap"):
            expected_spot_busy_time(LogNormal(0.0, 0.4), 0.5, work_cap=1.0)

    def test_validation(self):
        d = LogNormal(0.0, 0.4)
        with pytest.raises(ValueError):
            expected_spot_busy_time(d, -0.1)
        with pytest.raises(ValueError):
            expected_spot_busy_time(d, 0.1, checkpoint_interval=0.0)
        with pytest.raises(ValueError):
            expected_spot_busy_time(d, 0.1, checkpoint_overhead=-0.1)
        with pytest.raises(ValueError):
            expected_spot_busy_time(d, 0.1, work_cap=-1.0)
        with pytest.raises(ValueError):
            expected_spot_cost(d, 0.0, 0.1)

    def test_cost_accepts_a_price_process(self):
        d = LogNormal(0.0, 0.4)
        scalar = expected_spot_cost(d, 0.3, 0.5)
        process = expected_spot_cost(
            d, OUPriceProcess(mean=0.3, volatility=0.1), 0.5
        )
        assert scalar == pytest.approx(process, rel=1e-12)
