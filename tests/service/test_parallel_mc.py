"""Parallel Monte-Carlo: determinism and agreement.

The acceptance bar for the pooled paths:

* a serial backend stays bit-identical to the historical serial call;
* a pool is deterministic for a fixed seed and worker count;
* the parallel estimate agrees with the serial one within the combined
  Monte-Carlo confidence interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.distributions.registry import make_distribution
from repro.service.pool import SerialBackend, ThreadBackend, get_backend
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.strategies.registry import make_strategy

CM = CostModel(alpha=1.0, beta=0.2, gamma=0.1)


def _sequence(dist):
    seq = make_strategy("mean_by_mean").sequence(dist, CM)
    seq.ensure_covers(float(dist.quantile(0.999)))
    return seq


@pytest.fixture()
def dist():
    return make_distribution("lognormal", mu=3.0, sigma=0.5)


@pytest.fixture()
def pool4():
    with ThreadBackend(4) as pool:
        yield pool


class TestSerialPathUnchanged:
    def test_jobs_one_is_bit_identical_to_default(self, dist):
        """``--jobs 1`` at a command-line edge gets the serial kernel."""
        a = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=2000, seed=42
        )
        b = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=2000, seed=42,
            backend=get_backend("thread", 1),
        )
        assert a == b  # frozen dataclass: full field-wise equality

    def test_serial_backend_object_is_bit_identical(self, dist):
        a = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=2000, seed=42
        )
        b = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=2000, seed=42,
            backend=SerialBackend(),
        )
        assert a == b


class TestParallelPath:
    def test_deterministic_for_fixed_seed_and_jobs(self, dist, pool4):
        a = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=4000, seed=7, backend=pool4
        )
        b = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=4000, seed=7, backend=pool4
        )
        assert a == b

    def test_agrees_with_serial_within_ci(self, dist, pool4):
        n = 10_000
        serial = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=n, seed=123
        )
        parallel = monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=n, seed=123, backend=pool4
        )
        assert parallel.n_samples == n
        # Different sample sets (spawned streams), same estimand: the gap
        # must be small against the combined standard error.
        tol = 5.0 * float(
            np.hypot(serial.std_error, parallel.std_error)
        )
        assert abs(parallel.mean_cost - serial.mean_cost) <= tol
        assert parallel.std_error == pytest.approx(
            serial.std_error, rel=0.5
        )

    def test_covers_samples_without_concurrent_extension(self, dist):
        """The driver extends once before dispatch; the chunks then cost a
        sequence that already covers every sample."""
        seq = _sequence(dist)
        with ThreadBackend(3) as pool:
            result = monte_carlo_expected_cost(
                seq, dist, CM, n_samples=3000, seed=5, backend=pool
            )
        assert result.max_reservations_hit <= len(seq)

    def test_chunk_accounting(self, dist, pool4, isolated_obs):
        from repro import observability as obs

        reg, _ = isolated_obs
        obs.enable()
        monte_carlo_expected_cost(
            _sequence(dist), dist, CM, n_samples=1000, seed=1, backend=pool4
        )
        assert int(reg.counter("mc.parallel_chunks").value) == 4
        assert int(reg.counter("mc.samples").value) == 1000

