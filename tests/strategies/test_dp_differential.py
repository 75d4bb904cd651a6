"""The lower-envelope kernel against the O(n^2) reference scans.

The discrete and multi-resource DPs must reproduce the reference bit for bit
(picks and values).  The checkpoint DP must do so on the E2 grid; elsewhere
zero-overhead candidates can tie in real arithmetic, and there only the
plan's cost is compared (see ``test_checkpoint_real_ties``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostModel, DiscreteDistribution, solve_discrete_dp
from repro.discretization.schemes import discretize, equal_probability
from repro.distributions.lognormal import LogNormal
from repro.distributions.registry import paper_distributions
from repro.extensions.checkpoint import (
    CheckpointPlan,
    checkpoint_costs_for_times,
    solve_checkpoint_dp,
)
from repro.extensions.multiresource import (
    AmdahlSpeedup,
    MultiResourceCostModel,
    PowerLawSpeedup,
    solve_multiresource_dp,
)
from tests.strategies.dp_reference import (
    exhaustive_optimal,
    reference_checkpoint_dp,
    reference_discrete_dp,
    reference_multiresource_dp,
)

COST_MODELS = [
    CostModel.reservation_only(),
    CostModel(alpha=1.0, beta=1.0, gamma=0.5),
    CostModel.neurohpc(),
    CostModel(alpha=2.0, beta=0.3, gamma=0.0),
]
PAPER_LAWS = sorted(paper_distributions())


def assert_discrete_matches(discrete, cm):
    ref_cost, ref_picks, ref_values = reference_discrete_dp(discrete, cm)
    result = solve_discrete_dp(discrete, cm)
    assert np.array_equal(result.choice_indices, ref_picks)
    assert result.expected_cost == ref_cost
    assert np.array_equal(result.value_unnormalized, ref_values)


@pytest.mark.parametrize("name", PAPER_LAWS)
@pytest.mark.parametrize("scheme", ["equal_time", "equal_probability"])
@pytest.mark.parametrize("n", [50, 1000])
def test_discrete_dp_bit_equal_on_paper_laws(name, scheme, n):
    discrete = discretize(paper_distributions()[name], n, scheme, 1e-7)
    for cm in COST_MODELS:
        assert_discrete_matches(discrete, cm)


@pytest.mark.parametrize("serial_fraction", [0.02, 0.2])
def test_multiresource_bit_equal_on_e3_grid(serial_fraction):
    discrete = equal_probability(LogNormal(0.0, 0.8), 400, 1e-6)
    speedup = AmdahlSpeedup(serial_fraction)
    procs = (1, 2, 4, 8, 16, 32)
    for alpha1 in (0.01, 0.05, 0.2, 1.0):
        cm = MultiResourceCostModel(alpha0=0.2, alpha1=alpha1, beta=1.0, gamma=0.1)
        plan = solve_multiresource_dp(discrete, cm, speedup, procs)
        got = [(r.duration, r.processors) for r in plan.reservations]
        assert got == reference_multiresource_dp(discrete, cm, speedup, procs)


@pytest.mark.parametrize("name", ["exponential", "lognormal", "weibull"])
def test_checkpoint_bit_equal_on_e2_grid(name):
    dist = paper_distributions()[name]
    discrete = equal_probability(dist, 1000, 1e-7)
    cm = CostModel.reservation_only()
    for overhead_rel in (0.0, 0.05, 0.25, 1.0):
        overhead = overhead_rel * dist.mean()
        plan = solve_checkpoint_dp(discrete, cm, overhead)
        assert np.array_equal(
            plan.thresholds, reference_checkpoint_dp(discrete, cm, overhead)
        )


@st.composite
def sparse_supports(draw, max_n=12):
    """Supports whose masses are often zero, including a zero tail."""
    n = draw(st.integers(1, max_n))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    masses = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
        )
    )
    zero_tail = draw(st.integers(0, n - 1))
    if zero_tail:
        masses[-zero_tail:] = [0.0] * zero_tail
    if sum(masses) <= 0.0:
        masses[0] = 1.0
    masses = np.asarray(masses)
    return DiscreteDistribution(np.cumsum(gaps), masses / masses.sum())


cost_models = st.builds(
    CostModel,
    alpha=st.floats(0.1, 3.0),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)


@settings(max_examples=150, deadline=None)
@given(discrete=sparse_supports(max_n=30), cm=cost_models)
def test_discrete_dp_bit_equal_with_zero_masses(discrete, cm):
    assert_discrete_matches(discrete, cm)


@settings(max_examples=60, deadline=None)
@given(discrete=sparse_supports(max_n=7), cm=cost_models)
def test_discrete_dp_matches_exhaustive_with_zero_masses(discrete, cm):
    result = solve_discrete_dp(discrete, cm)
    assert result.expected_cost == pytest.approx(
        exhaustive_optimal(discrete, cm), rel=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    discrete=sparse_supports(max_n=20),
    a0=st.floats(0.0, 1.0),
    a1=st.floats(0.01, 1.0),
    beta=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 2.0),
    amdahl=st.booleans(),
    shape=st.floats(0.0, 1.0),
)
def test_multiresource_bit_equal_with_zero_masses(
    discrete, a0, a1, beta, gamma, amdahl, shape
):
    cm = MultiResourceCostModel(alpha0=a0, alpha1=a1, beta=beta, gamma=gamma)
    speedup = AmdahlSpeedup(shape) if amdahl else PowerLawSpeedup(shape)
    procs = (1, 2, 4, 8)
    plan = solve_multiresource_dp(discrete, cm, speedup, procs)
    got = [(r.duration, r.processors) for r in plan.reservations]
    assert got == reference_multiresource_dp(discrete, cm, speedup, procs)


def discrete_plan_cost(discrete, thresholds, overhead, cm):
    plan = CheckpointPlan(thresholds=thresholds, overhead=overhead)
    f = discrete.masses / discrete.masses.sum()
    return float(np.dot(f, checkpoint_costs_for_times(plan, discrete.values, cm)))


@settings(max_examples=150, deadline=None)
@given(
    discrete=sparse_supports(max_n=30),
    cm=cost_models,
    overhead=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_checkpoint_real_ties(discrete, cm, overhead):
    """With ``C = 0`` and ``gamma = 0`` an extra checkpoint costs nothing, so
    threshold sets that split the same covered work differently tie in real
    arithmetic.  The reference compares fully expanded candidates and the
    kernel's hull compares lines; they round such ties differently and may
    pick different thresholds.  The contract is therefore the plan's cost."""
    got = solve_checkpoint_dp(discrete, cm, overhead).thresholds
    ref = reference_checkpoint_dp(discrete, cm, overhead)
    assert discrete_plan_cost(discrete, got, overhead, cm) == pytest.approx(
        discrete_plan_cost(discrete, ref, overhead, cm), rel=1e-15
    )


@pytest.mark.parametrize(
    "discrete, cm",
    [
        # No mass below 12.22 and gamma = 0: every split of the first
        # 12.22 units of work costs the same.
        (
            DiscreteDistribution(
                [3.59, 7.26, 12.22, 12.82], np.array([0.0, 0.0, 0.75, 0.71]) / 1.46
            ),
            CostModel(alpha=0.86),
        ),
        # Near-equal candidates across a fine equal-probability grid.
        (
            discretize(
                paper_distributions()["uniform"], 1000, "equal_probability", 1e-7
            ),
            CostModel(alpha=1.0, beta=1.0, gamma=0.5),
        ),
    ],
    ids=["zero-mass-split", "uniform-n1000"],
)
def test_checkpoint_zero_overhead_ties(discrete, cm):
    got = solve_checkpoint_dp(discrete, cm, 0.0).thresholds
    ref = reference_checkpoint_dp(discrete, cm, 0.0)
    assert discrete_plan_cost(discrete, got, 0.0, cm) == pytest.approx(
        discrete_plan_cost(discrete, ref, 0.0, cm), rel=1e-15
    )
