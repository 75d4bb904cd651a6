"""Differential harness: batched kernels vs the serial Monte-Carlo path.

The batched kernels (``repro.simulation.batch``) advertise three contracts:

(a) the matrix kernel is **bit-identical** to looping the serial kernel
    over the same rows and samples;
(b) the serial (no backend) Monte-Carlo path is bit-identical to the
    historical implementation (frozen here as an inline reference);
(c) thread and process pools of one size agree bit-for-bit with each
    other for a fixed seed and within a CI-aware ``z=4`` band of the serial
    estimate (different sample partitioning, same estimator).

Each contract gets direct tests plus a Hypothesis sweep over random
ladders/sample sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.recurrence import generate_sequence_grid, optimal_sequence_from_t1
from repro.core.bounds import t1_search_interval
from repro.core.sequence import ReservationSequence, SequenceError
from repro.core.recurrence import RecurrenceError
from repro.service.pool import ProcessBackend, SerialBackend, ThreadBackend
from repro.simulation.batch import (
    BatchCostSummary,
    ReservationBatch,
    batch_cost_matrix,
    batch_expected_costs,
    monte_carlo_many,
)
from repro.simulation.monte_carlo import (
    costs_for_times,
    monte_carlo_expected_cost,
)
from repro.utils.rng import as_generator


def _ladder_rows(tmax: float, n_rows: int, rng: np.random.Generator) -> list:
    """Random geometric ladders, every one covering ``tmax``."""
    rows = []
    for _ in range(n_rows):
        start = float(rng.uniform(0.05, 3.0))
        factor = float(rng.uniform(1.2, 2.5))
        vals = [start]
        while vals[-1] < tmax:
            vals.append(vals[-1] * factor)
        rows.append(np.asarray(vals))
    return rows


@pytest.fixture
def cost_model():
    return CostModel(alpha=1.0, beta=0.4, gamma=0.2)


# ----------------------------------------------------------------------
# (a) matrix kernel == looped serial kernel, bit for bit
# ----------------------------------------------------------------------
class TestMatrixKernelBitIdentity:
    def test_matrix_equals_looped_serial(self, any_distribution, any_cost_model):
        times = any_distribution.rvs(600, seed=3)
        rng = np.random.default_rng(17)
        rows = _ladder_rows(float(times.max()), 24, rng)
        batch = ReservationBatch.from_rows(rows)
        looped = np.vstack(
            [
                costs_for_times(ReservationSequence(r), times, any_cost_model)
                for r in rows
            ]
        )
        matrix = batch_cost_matrix(batch, times, any_cost_model)
        assert matrix.dtype == looped.dtype
        assert np.array_equal(matrix, looped)

    def test_row_means_bit_identical(self, any_distribution, cost_model):
        times = any_distribution.rvs(500, seed=5)
        rows = _ladder_rows(float(times.max()), 12, np.random.default_rng(1))
        batch = ReservationBatch.from_rows(rows)
        looped_means = np.array(
            [
                float(costs_for_times(ReservationSequence(r), times, cost_model).mean())
                for r in rows
            ]
        )
        matrix_means = batch_cost_matrix(batch, times, cost_model).mean(axis=1)
        assert np.array_equal(matrix_means, looped_means)

    def test_single_row_single_sample(self, cost_model):
        batch = ReservationBatch.from_rows([np.array([2.0])])
        out = batch_cost_matrix(batch, np.array([1.5]), cost_model)
        seq = ReservationSequence([2.0])
        ref = costs_for_times(seq, np.array([1.5]), cost_model)
        assert np.array_equal(out[0], ref)

    def test_uncovered_row_raises(self, cost_model):
        batch = ReservationBatch.from_rows([np.array([1.0, 2.0])])
        with pytest.raises(ValueError, match="do not cover"):
            batch_cost_matrix(batch, np.array([0.5, 5.0]), cost_model)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_rows=st.integers(1, 12),
        n_samples=st.integers(1, 200),
        beta=st.floats(0.0, 2.0),
        gamma=st.floats(0.0, 1.0),
    )
    def test_property_bit_identity(self, seed, n_rows, n_samples, beta, gamma):
        cm = CostModel(alpha=1.0, beta=beta, gamma=gamma)
        rng = np.random.default_rng(seed)
        times = rng.gamma(2.0, 2.0, size=n_samples) + 1e-6
        rows = _ladder_rows(float(times.max()), n_rows, rng)
        batch = ReservationBatch.from_rows(rows)
        looped = np.vstack(
            [costs_for_times(ReservationSequence(r), times, cm) for r in rows]
        )
        assert np.array_equal(batch_cost_matrix(batch, times, cm), looped)


# ----------------------------------------------------------------------
# Moments kernel: near-identical means, CI-sane errors
# ----------------------------------------------------------------------
class TestMomentsKernel:
    def test_means_match_matrix_to_roundoff(self, any_distribution, cost_model):
        times = any_distribution.rvs(800, seed=11)
        rows = _ladder_rows(float(times.max()), 16, np.random.default_rng(4))
        batch = ReservationBatch.from_rows(rows)
        matrix_means = batch_cost_matrix(batch, times, cost_model).mean(axis=1)
        summary = batch_expected_costs(batch, times, cost_model)
        assert isinstance(summary, BatchCostSummary)
        np.testing.assert_allclose(summary.mean_cost, matrix_means, rtol=1e-12)

    def test_std_error_matches_serial(self, cost_model):
        d_times = np.random.default_rng(0).gamma(3.0, 1.5, size=500)
        rows = _ladder_rows(float(d_times.max()), 6, np.random.default_rng(2))
        batch = ReservationBatch.from_rows(rows)
        summary = batch_expected_costs(batch, d_times, cost_model)
        for s, row in enumerate(rows):
            costs = costs_for_times(ReservationSequence(row), d_times, cost_model)
            serial_se = float(costs.std(ddof=1) / np.sqrt(d_times.size))
            assert summary.std_error[s] == pytest.approx(serial_se, rel=1e-8)

    def test_max_index_matches_serial_kernel(self, cost_model):
        times = np.random.default_rng(9).gamma(2.0, 2.0, size=300)
        rows = _ladder_rows(float(times.max()), 5, np.random.default_rng(3))
        batch = ReservationBatch.from_rows(rows)
        summary = batch_expected_costs(batch, times, cost_model)
        for s, row in enumerate(rows):
            k = np.searchsorted(row, times, side="left")
            assert summary.max_index[s] == int(k.max())

    def test_infeasible_rows_are_nan(self, cost_model):
        matrix = np.full((2, 3), np.inf)
        matrix[0, :] = [1.0, 2.0, 100.0]
        batch = ReservationBatch(
            matrix=matrix,
            lengths=np.array([3, 0]),
            feasible=np.array([True, False]),
        )
        times = np.random.default_rng(1).uniform(0.1, 50.0, size=64)
        summary = batch_expected_costs(batch, times, cost_model)
        assert np.isnan(summary.mean_cost[1])
        assert summary.max_index[1] == -1
        assert np.isfinite(summary.mean_cost[0])
        assert summary.best_row() == 0


# ----------------------------------------------------------------------
# (b) serial path bit-identical to the historical one
# ----------------------------------------------------------------------
def _historical_serial_estimate(sequence, distribution, cost_model, n_samples, seed):
    """The pre-refactor serial path, frozen: same draw, same kernel ops."""
    rng = as_generator(seed)
    times = np.asarray(distribution.rvs(n_samples, seed=rng), dtype=float)
    sequence.ensure_covers(float(times.max()))
    values = sequence.values
    k = np.searchsorted(values, times, side="left")
    with np.errstate(over="ignore"):
        failure_costs = (
            cost_model.alpha + cost_model.beta
        ) * values + cost_model.gamma
        prefix = np.concatenate([[0.0], np.cumsum(failure_costs)])
    costs = (
        prefix[k]
        + cost_model.alpha * values[k]
        + cost_model.beta * times
        + cost_model.gamma
    )
    mean = float(costs.mean())
    std_error = float(costs.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, std_error, int(k.max()) + 1


class TestSerialPathUnchanged:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_jobs1_bit_identical_to_historical(
        self, any_distribution, any_cost_model, seed
    ):
        seq = ReservationSequence(
            [float(any_distribution.quantile(0.6))],
            extend=lambda cur: float(cur[-1]) * 2.0,
        )
        ref_seq = ReservationSequence(
            [float(any_distribution.quantile(0.6))],
            extend=lambda cur: float(cur[-1]) * 2.0,
        )
        result = monte_carlo_expected_cost(
            seq, any_distribution, any_cost_model, n_samples=700, seed=seed
        )
        mean, std_error, max_hit = _historical_serial_estimate(
            ref_seq, any_distribution, any_cost_model, 700, seed
        )
        assert result.mean_cost == mean
        assert result.std_error == std_error
        assert result.max_reservations_hit == max_hit

    def test_n_samples_one(self, any_distribution, cost_model):
        seq = ReservationSequence(
            [float(any_distribution.quantile(0.5))],
            extend=lambda cur: float(cur[-1]) * 2.0,
        )
        result = monte_carlo_expected_cost(
            seq, any_distribution, cost_model, n_samples=1, seed=0
        )
        assert result.std_error == 0.0
        assert result.n_samples == 1


# ----------------------------------------------------------------------
# (c) backend agreement: thread == process, all within z=4 of serial
# ----------------------------------------------------------------------
class TestBackendAgreement:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_thread_process_bit_identical(self, unbounded_distribution, cost_model, jobs):
        seq = ReservationSequence(
            [float(unbounded_distribution.quantile(0.5))],
            extend=lambda cur: float(cur[-1]) * 2.0,
        )
        with ThreadBackend(jobs) as thread_pool, ProcessBackend(jobs) as process_pool:
            thread = monte_carlo_expected_cost(
                seq, unbounded_distribution, cost_model,
                n_samples=2000, seed=42, backend=thread_pool,
            )
            process = monte_carlo_expected_cost(
                seq, unbounded_distribution, cost_model,
                n_samples=2000, seed=42, backend=process_pool,
            )
        assert thread.mean_cost == process.mean_cost
        assert thread.std_error == process.std_error
        assert thread.n_samples == process.n_samples

    def test_all_backends_within_z4_of_serial(self, cost_model):
        from repro.distributions.lognormal import LogNormal

        d = LogNormal(3.0, 0.5)
        seq = ReservationSequence(
            [float(d.quantile(0.5))], extend=lambda cur: float(cur[-1]) * 2.0
        )
        n = 20_000
        serial = monte_carlo_expected_cost(seq, d, cost_model, n_samples=n, seed=1)
        for make_pool in (ThreadBackend, ProcessBackend):
            with make_pool(2) as pool:
                other = monte_carlo_expected_cost(
                    seq, d, cost_model, n_samples=n, seed=1, backend=pool
                )
            tolerance = 4.0 * np.hypot(serial.std_error, other.std_error)
            assert abs(other.mean_cost - serial.mean_cost) <= tolerance, pool


# ----------------------------------------------------------------------
# monte_carlo_many: backend-invariant batch of estimates
# ----------------------------------------------------------------------
class TestMonteCarloMany:
    def _sequences(self, d, k=6):
        return [
            ReservationSequence(
                [float(d.quantile(0.3 + 0.1 * i))],
                extend=lambda cur: float(cur[-1]) * 2.0,
            )
            for i in range(k)
        ]

    def test_backend_invariance(self, unbounded_distribution, cost_model):
        d = unbounded_distribution
        base = monte_carlo_many(
            self._sequences(d), d, cost_model, n_samples=400, seed=5,
            backend=SerialBackend(),
        )
        for make_pool, jobs in (
            (ThreadBackend, 2), (ProcessBackend, 2), (ProcessBackend, 4)
        ):
            with make_pool(jobs) as pool:
                other = monte_carlo_many(
                    self._sequences(d), d, cost_model, n_samples=400, seed=5,
                    backend=pool,
                )
            assert [r.mean_cost for r in other] == [r.mean_cost for r in base]
            assert [r.std_error for r in other] == [r.std_error for r in base]

    def test_streams_are_independent_per_sequence(self, cost_model):
        from repro.distributions.weibull import Weibull

        d = Weibull(0.5, 1.0)
        seqs = self._sequences(d, k=3)
        results = monte_carlo_many(seqs, d, cost_model, n_samples=300, seed=9)
        # Same t1 would give the same estimate; distinct t1s with distinct
        # streams must differ.
        means = [r.mean_cost for r in results]
        assert len(set(means)) == len(means)

    def test_matches_expected_cost_for_same_stream(self, cost_model):
        from repro.distributions.lognormal import LogNormal

        d = LogNormal(3.0, 0.5)
        seqs = self._sequences(d, k=4)
        many = monte_carlo_many(seqs, d, cost_model, n_samples=500, seed=21)
        children = np.random.SeedSequence(21).spawn(4)
        for seq_template, child, result in zip(self._sequences(d, k=4), children, many):
            single = monte_carlo_expected_cost(
                seq_template, d, cost_model, n_samples=500, seed=child
            )
            assert result.mean_cost == single.mean_cost


# ----------------------------------------------------------------------
# Eq. (11) grid recurrence vs the lazy per-candidate path
# ----------------------------------------------------------------------
class TestSequenceGrid:
    def test_grid_matches_lazy_path(self, any_distribution, any_cost_model):
        d, cm = any_distribution, any_cost_model
        lo, hi = t1_search_interval(d, cm)
        m = np.arange(1, 81, dtype=float)
        t1s = lo + m * (hi - lo) / 80
        samples = d.rvs(300, seed=9)
        cover = float(samples.max())
        matrix, lengths, feasible = generate_sequence_grid(t1s, d, cm, cover)
        for i, t1 in enumerate(t1s):
            try:
                seq = optimal_sequence_from_t1(float(t1), d, cm)
                seq.ensure_covers(cover)
                ref = np.asarray(seq.values)
            except (RecurrenceError, SequenceError):
                assert not feasible[i]
                continue
            assert feasible[i]
            assert np.array_equal(matrix[i, : lengths[i]], ref)

    def test_infeasible_rows_fully_padded(self):
        from repro.distributions.uniform import Uniform

        d = Uniform(0.0, 10.0)
        cm = CostModel.reservation_only()
        t1s = np.linspace(0.5, 9.5, 50)
        matrix, lengths, feasible = generate_sequence_grid(t1s, d, cm, 9.9)
        assert np.all(np.isinf(matrix[~feasible]))
        assert np.all(lengths[~feasible] == 0)

    def test_rejects_bad_input(self):
        from repro.distributions.lognormal import LogNormal

        d = LogNormal(3.0, 0.5)
        with pytest.raises(ValueError):
            generate_sequence_grid(np.empty(0), d, CostModel(), 10.0)
