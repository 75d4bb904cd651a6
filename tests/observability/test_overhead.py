"""Zero-overhead guard: disabled instrumentation must be (nearly) free.

The acceptance bar for the observability layer is that with everything off
(the default), a 10k-sample Monte-Carlo evaluation pays < 5% versus the
un-instrumented seed code.  We re-state the seed's exact computation inline
as the baseline and time the two back to back in each round, alternating
which goes first.  The estimate is the median over rounds of the per-round
ratio instrumented/baseline: a noisy neighbour that slows one round slows
both sides of that round's ratio, and the median ignores the rounds it
skews anyway.
"""

import time

import numpy as np
import pytest

from repro import CostModel, LogNormal
from repro import observability as obs
from repro.core.sequence import ReservationSequence, constant_extender
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.utils.rng import as_generator

N_SAMPLES = 10_000
REPEATS = 31


def _seed_baseline(sequence, distribution, cost_model, n_samples, seed):
    """The seed's monte_carlo_expected_cost, with zero instrumentation calls
    (including the duplicated searchsorted it used to make)."""
    rng = as_generator(seed)
    times = distribution.rvs(n_samples, seed=rng)
    times = np.asarray(times, dtype=float)
    sequence.ensure_covers(float(times.max()))
    values = sequence.values
    k = np.searchsorted(values, times, side="left")
    with np.errstate(over="ignore"):
        failure_costs = (cost_model.alpha + cost_model.beta) * values + cost_model.gamma
        prefix = np.concatenate([[0.0], np.cumsum(failure_costs)])
    costs = (
        prefix[k]
        + cost_model.alpha * values[k]
        + cost_model.beta * times
        + cost_model.gamma
    )
    k2 = np.searchsorted(values, times, side="left")
    return float(costs.mean()), int(k2.max()) + 1


@pytest.mark.benchmark_guard
def test_disabled_instrumentation_overhead_under_5_percent(isolated_obs):
    d = LogNormal(3.0, 0.5)
    cm = CostModel.reservation_only()
    mu = d.mean()
    # Pre-extend past every sample so neither side pays extension costs.
    seq = ReservationSequence([mu], extend=constant_extender(mu))
    seq.ensure_covers(float(d.quantile(1.0 - 1e-12)) * 2.0)

    assert not obs.is_enabled()

    # Warm both paths (allocator, caches, lazy imports).
    monte_carlo_expected_cost(seq, d, cm, n_samples=N_SAMPLES, seed=0)
    _seed_baseline(seq, d, cm, N_SAMPLES, seed=0)

    def timed(fn):
        start = time.perf_counter()
        fn(seq, d, cm, n_samples=N_SAMPLES, seed=0)
        return time.perf_counter() - start

    ratios = []
    for round_ in range(REPEATS):
        if round_ % 2:
            baseline = timed(_seed_baseline)
            instrumented = timed(monte_carlo_expected_cost)
        else:
            instrumented = timed(monte_carlo_expected_cost)
            baseline = timed(_seed_baseline)
        ratios.append(instrumented / baseline)

    overhead = float(np.median(ratios)) - 1.0
    # The instrumented path also *dropped* one searchsorted (the satellite
    # fix), so this usually comes out negative; 5% is the hard ceiling.
    assert overhead < 0.05, (
        f"disabled instrumentation costs {100 * overhead:.2f}% "
        f"(median of {REPEATS} paired ratios; quartiles "
        f"{np.percentile(ratios, 25):.3f}..{np.percentile(ratios, 75):.3f})"
    )

    # And nothing was recorded while disabled.
    registry, _ = isolated_obs
    assert registry.to_dict()["counters"] == {}


@pytest.mark.benchmark_guard
def test_noop_hot_site_calls_are_cheap(isolated_obs):
    """100k disabled inc() calls should cost well under one MC evaluation."""
    assert not obs.is_enabled()
    start = time.perf_counter()
    for _ in range(100_000):
        obs.inc("hot.counter")
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"100k no-op inc() calls took {elapsed:.3f}s"
