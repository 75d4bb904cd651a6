"""Seed-determinism contract: every stochastic path in the library is
bit-identical for a fixed ``numpy.random.Generator`` seed.

The RNG audit behind this module found no sampling site that falls back to
global numpy state — ``rvs``, the Monte-Carlo evaluator, and the batch
simulator all accept an explicit ``SeedLike`` and route through
``repro.utils.rng.as_generator``.  These tests pin that contract so a future
code path cannot silently regress to ``np.random.*`` module-level calls.
"""

import numpy as np

from repro.batchsim.engine import simulate
from repro.batchsim.workload import WorkloadSpec, generate_workload
from repro.core.sequence import ReservationSequence
from repro.distributions.registry import paper_distribution
from repro.simulation.evaluator import evaluate_on_samples
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.utils.rng import as_generator, spawn_generators
from repro.verification.generators import covering_grid

SEED = 20260805


class TestRvs:
    def test_same_int_seed_bit_identical(self, any_distribution):
        a = any_distribution.rvs(512, seed=SEED)
        b = any_distribution.rvs(512, seed=SEED)
        np.testing.assert_array_equal(a, b)

    def test_fresh_generators_bit_identical(self, any_distribution):
        a = any_distribution.rvs(512, seed=np.random.default_rng(SEED))
        b = any_distribution.rvs(512, seed=np.random.default_rng(SEED))
        np.testing.assert_array_equal(a, b)

    def test_int_seed_equals_fresh_generator(self, any_distribution):
        """`seed=n` and `seed=default_rng(n)` draw the same stream."""
        a = any_distribution.rvs(64, seed=SEED)
        b = any_distribution.rvs(64, seed=np.random.default_rng(SEED))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, any_distribution):
        a = any_distribution.rvs(64, seed=SEED)
        b = any_distribution.rvs(64, seed=SEED + 1)
        assert not np.array_equal(a, b)


class TestMonteCarlo:
    def test_estimate_bit_identical(self, any_distribution, neurohpc_cost):
        seq = ReservationSequence(covering_grid(any_distribution))
        runs = [
            monte_carlo_expected_cost(
                seq, any_distribution, neurohpc_cost, n_samples=2048, seed=SEED
            )
            for _ in range(2)
        ]
        assert runs[0].mean_cost == runs[1].mean_cost
        assert runs[0].std_error == runs[1].std_error
        assert runs[0].max_reservations_hit == runs[1].max_reservations_hit

    def test_generator_seed_bit_identical(self, any_distribution, neurohpc_cost):
        seq = ReservationSequence(covering_grid(any_distribution))
        a = monte_carlo_expected_cost(
            seq, any_distribution, neurohpc_cost, n_samples=1024,
            seed=np.random.default_rng(SEED),
        )
        b = monte_carlo_expected_cost(
            seq, any_distribution, neurohpc_cost, n_samples=1024,
            seed=np.random.default_rng(SEED),
        )
        assert a.mean_cost == b.mean_cost

    def test_common_random_numbers_are_exactly_common(self, neurohpc_cost):
        """evaluate_on_samples on an explicitly shared draw is deterministic
        by construction — the Table 2 common-random-numbers protocol."""
        d = paper_distribution("lognormal")
        samples = d.rvs(1000, seed=SEED)
        seq = ReservationSequence(covering_grid(d))
        a = evaluate_on_samples(seq, d, neurohpc_cost, samples)
        b = evaluate_on_samples(seq, d, neurohpc_cost, samples)
        assert a.expected_cost == b.expected_cost
        assert a.normalized_cost == b.normalized_cost


class TestBatchSim:
    def test_workload_bit_identical(self):
        spec = WorkloadSpec(n_jobs=200, underestimate_fraction=0.2)
        jobs_a = generate_workload(spec, seed=SEED)
        jobs_b = generate_workload(spec, seed=SEED)
        assert len(jobs_a) == len(jobs_b) == 200
        for a, b in zip(jobs_a, jobs_b):
            assert (a.submit_time, a.nodes, a.requested_runtime, a.actual_runtime) == (
                b.submit_time, b.nodes, b.requested_runtime, b.actual_runtime
            )

    def test_simulation_bit_identical(self):
        spec = WorkloadSpec(n_jobs=150, underestimate_fraction=0.1)
        results = [
            simulate(generate_workload(spec, seed=SEED), total_nodes=64)
            for _ in range(2)
        ]
        assert results[0].makespan == results[1].makespan
        ends_a = [(j.job_id, j.start_time, j.end_time, j.state) for j in results[0].jobs]
        ends_b = [(j.job_id, j.start_time, j.end_time, j.state) for j in results[1].jobs]
        assert ends_a == ends_b


class TestRngUtilities:
    def test_as_generator_identity_for_generator(self):
        g = np.random.default_rng(SEED)
        assert as_generator(g) is g

    def test_spawn_generators_deterministic_and_independent(self):
        a = spawn_generators(SEED, 4)
        b = spawn_generators(SEED, 4)
        draws_a = [g.random(8) for g in a]
        draws_b = [g.random(8) for g in b]
        for da, db in zip(draws_a, draws_b):
            np.testing.assert_array_equal(da, db)
        # Streams are pairwise distinct.
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws_a[i], draws_a[j])

    def test_none_seed_gives_fresh_entropy(self):
        assert not np.array_equal(as_generator(None).random(8),
                                  as_generator(None).random(8))
