"""The screened winner search and the moments kernel's standard error.

* ``batch_best_row`` must return the full matrix kernel's first argmin and
  its mean, every bit, on grids salted with exact ties (duplicated rows),
  1-ulp near-ties (one reservation nudged to the adjacent float) and
  infeasible rows;
* ``batch_expected_costs`` must give a finite standard error to every row
  whose mean is finite, on the Fig. 4 NeuroHPC grids whose huge
  breakdown-row costs used to overflow the raw second moment.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import t1_search_interval
from repro.core.cost import CostModel
from repro.experiments.fig4 import DEFAULT_SCALES
from repro.platforms.neurohpc import NeuroHPCPlatform, scaled_workload
from repro.simulation.batch import (
    ReservationBatch,
    batch_best_row,
    batch_cost_matrix,
    batch_expected_costs,
    screen_margin,
)
from repro.strategies.brute_force import BruteForce


@st.composite
def tied_grids(draw):
    """``(batch, times, cost_model)`` with duplicated and 1-ulp-nudged rows."""
    n = draw(st.integers(1, 40))
    times = np.array(
        draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    )
    top = float(times.max())
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        steps = draw(st.lists(st.floats(0.01, 60.0), min_size=1, max_size=6))
        row = np.cumsum(steps)
        if row[-1] < top:
            row = np.append(row, top)
        rows.append(row)
    for _ in range(draw(st.integers(1, 8))):
        row = rows[draw(st.integers(0, len(rows) - 1))].copy()
        j = draw(st.integers(0, row.size - 1))
        nudge = draw(st.sampled_from([0.0, np.inf, -np.inf]))
        if nudge:
            row[j] = np.nextafter(row[j], nudge)
        strictly_increasing = bool(np.all(np.diff(row) > 0)) and row[0] > 0
        if strictly_increasing and row[-1] >= top:
            rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    batch = ReservationBatch.from_rows([rows[i] for i in order])
    feasible = np.array(
        draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    )
    feasible[draw(st.integers(0, len(rows) - 1))] = True
    matrix = np.where(feasible[:, None], batch.matrix, np.inf)
    batch = ReservationBatch(
        matrix=matrix, lengths=batch.lengths, feasible=feasible
    )
    cost_model = CostModel(
        alpha=draw(st.floats(0.01, 5.0)),
        beta=draw(st.floats(0.0, 5.0)),
        gamma=draw(st.floats(0.0, 5.0)),
    )
    return batch, times, cost_model


@settings(max_examples=200)
@given(tied_grids())
def test_screened_winner_is_the_full_argmin(case):
    batch, times, cost_model = case
    means = batch_cost_matrix(batch, times, cost_model).mean(axis=1)
    expected = int(np.argmin(np.where(batch.feasible, means, np.inf)))
    row, cost = batch_best_row(batch, times, cost_model)
    assert row == expected
    assert cost == means[expected]


def test_screen_keeps_exact_ties_and_the_first_wins():
    rows = [np.array([3.0, 9.0]), np.array([2.0, 9.0]), np.array([2.0, 9.0])]
    batch = ReservationBatch.from_rows(rows)
    times = np.array([1.0, 1.5, 8.0])
    cm = CostModel(alpha=1.0, beta=1.0, gamma=0.5)
    means = batch_cost_matrix(batch, times, cm).mean(axis=1)
    assert means[1] == means[2] < means[0]
    assert batch_best_row(batch, times, cm) == (1, means[1])


def test_screen_margin_grows_with_the_sum_length():
    unit = np.finfo(float).eps / 2
    assert screen_margin(1000, 6) > 4 * (1000 + 12 + 5) * unit
    assert screen_margin(1000, 6) < 5 * (1000 + 12 + 5) * unit
    assert screen_margin(10, 2) < screen_margin(1000, 2)


def test_no_feasible_row_raises():
    batch = ReservationBatch(
        matrix=np.full((2, 1), np.inf),
        lengths=np.array([1, 1]),
        feasible=np.zeros(2, dtype=bool),
    )
    with pytest.raises(ValueError, match="no feasible rows"):
        batch_best_row(batch, np.array([1.0]), CostModel.reservation_only())


@pytest.mark.parametrize("scale", DEFAULT_SCALES)
def test_std_error_finite_wherever_the_mean_is(scale):
    """Paper-settings Fig. 4 grid (M=5000, N=1000): rows that reach past
    1e154 used to square to inf in the raw second moment and come back
    with a nan standard error and overflow warnings.  The full scan of the
    same grid is silent too (a row whose costs pass 1e305 is a feasible
    point with an inf cost) and agrees with the screened winner."""
    cm = NeuroHPCPlatform().cost_model()
    d = scaled_workload(*scale)
    samples = d.rvs(1000, seed=1)
    lo, hi = t1_search_interval(d, cm)
    t1s = lo + np.arange(1, 5001) * (hi - lo) / 5000
    grid = ReservationBatch.from_grid(t1s, d, cm, float(samples.max()))
    bf = BruteForce(m_grid=5000, n_samples=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = batch_expected_costs(grid, samples, cm)
        scan = bf.scan(d, cm, samples=samples)
    assert (scan.best_t1, scan.best_cost) == bf.best_candidate(d, cm, samples=samples)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = batch_cost_matrix(grid, samples, cm)
        means = costs.mean(axis=1)
        # Scaled reference: the plain std of these rows overflows too.
        top = costs.max(axis=1, keepdims=True)
        ref = (costs / top).std(axis=1, ddof=1) * top[:, 0] / np.sqrt(samples.size)
    rows = grid.feasible & np.isfinite(means)
    assert rows.sum() > 4000
    se = summary.std_error[rows]
    assert np.isfinite(se).all()
    assert np.all(np.abs(se - ref[rows]) <= 1e-8 * ref[rows] + 1e-14 * means[rows])
