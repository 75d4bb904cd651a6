"""Tests for the BRUTE-FORCE heuristic (Section 4.1)."""

import pytest

from repro import (
    BruteForce,
    CostModel,
    Exponential,
    LogNormal,
    Uniform,
    t1_search_interval,
)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [{"m_grid": 0}, {"n_samples": 0}, {"evaluation": "magic"}, {"seed": -1}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BruteForce(**kwargs)


class TestScan:
    def test_scan_covers_search_interval(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        bf = BruteForce(m_grid=50, n_samples=200, seed=0)
        scan = bf.scan(d, cm)
        lo, hi = t1_search_interval(d, cm)
        assert scan.interval == (lo, hi)
        assert len(scan.points) == 50
        assert scan.points[-1].t1 == pytest.approx(hi)

    def test_best_is_minimum_of_feasible(self):
        d = LogNormal(3.0, 0.5)
        bf = BruteForce(m_grid=80, n_samples=300, seed=1)
        scan = bf.scan(d, CostModel.reservation_only())
        feasible = [p for p in scan.points if p.feasible]
        assert feasible
        assert scan.best_cost == pytest.approx(
            min(p.expected_cost for p in feasible)
        )

    def test_infeasible_points_marked(self):
        """The uniform landscape: only t1 = b is feasible (Theorem 4)."""
        d = Uniform(10.0, 20.0)
        bf = BruteForce(m_grid=40, n_samples=100, seed=2)
        scan = bf.scan(d, CostModel.reservation_only())
        assert scan.best_t1 == pytest.approx(20.0)
        assert scan.feasible_fraction < 0.1

    def test_deterministic_with_seed(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        a = BruteForce(m_grid=30, n_samples=100, seed=7).scan(d, cm)
        b = BruteForce(m_grid=30, n_samples=100, seed=7).scan(d, cm)
        assert a.best_t1 == b.best_t1
        assert a.best_cost == b.best_cost


class TestSeriesEvaluation:
    def test_series_mode_matches_expected_cost(self):
        d = LogNormal(3.0, 0.5)
        cm = CostModel.reservation_only()
        bf = BruteForce(m_grid=60, evaluation="series")
        scan = bf.scan(d, cm)
        seq = bf.sequence(d, cm)
        # sequence() re-runs the scan; its first value is the best t1.
        assert seq.first == pytest.approx(scan.best_t1)

    def test_series_mode_deterministic(self):
        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        a = BruteForce(m_grid=40, evaluation="series").scan(d, cm)
        b = BruteForce(m_grid=40, evaluation="series").scan(d, cm)
        assert a.best_t1 == b.best_t1

    def test_exponential_gap_structure(self):
        """Exp(1): Fig. 3a's landscape — tiny t1 feasible (the recurrence
        runs away), a middle band (~0.25-0.74) infeasible, and everything
        above the separatrix feasible."""
        d = Exponential(1.0)
        cm = CostModel.reservation_only()
        bf = BruteForce(m_grid=200, evaluation="series")
        scan = bf.scan(d, cm)
        feasible = {round(p.t1, 2): p.feasible for p in scan.points}
        assert feasible[0.02]  # near zero: feasible
        assert not feasible[0.4]  # middle band: collapses
        assert not feasible[0.7]
        assert feasible[0.8]  # above the separatrix
        # The optimum sits just above the separatrix (~0.7465).
        assert 0.74 <= scan.best_t1 <= 0.8


class TestPaperValues:
    """Best-t1 sanity against Table 3 (tolerances cover MC noise)."""

    @pytest.mark.parametrize(
        "name,expected_t1,tol",
        [
            ("lognormal", 30.64, 1.5),
            ("truncated_normal", 10.22, 0.5),
            ("pareto", 2.61, 0.2),
            ("uniform", 19.99, 0.05),
            ("beta", 0.78, 0.05),
        ],
    )
    def test_best_t1_matches_table3(self, all_distributions, name, expected_t1, tol):
        d = all_distributions[name]
        bf = BruteForce(m_grid=400, n_samples=500, seed=5)
        scan = bf.scan(d, CostModel.reservation_only())
        assert scan.best_t1 == pytest.approx(expected_t1, abs=tol)

    def test_candidate_cost_none_for_invalid(self, all_distributions):
        d = all_distributions["lognormal"]
        cm = CostModel.reservation_only()
        bf = BruteForce(m_grid=10, n_samples=200, seed=0)
        samples = d.rvs(200, seed=1)
        # Table 3: Q(0.5) = 20.09 is an invalid t1 for LogNormal.
        assert bf.candidate_cost(20.09, d, cm, samples) is None
        # ... while the best-known t1 is valid.
        assert bf.candidate_cost(30.64, d, cm, samples) is not None


class TestNoFeasibleCandidate:
    def test_raises_informatively(self):
        """A 1-point grid landing on an infeasible t1 must raise."""
        d = Uniform(10.0, 20.0)
        cm = CostModel.reservation_only()

        class Pinned(BruteForce):
            def scan(self, dist, cost):
                # Force scanning a single interior (infeasible) candidate by
                # shrinking the grid to m=1 over [10, 12].
                return super().scan(dist, cost)

        bf = BruteForce(m_grid=3, n_samples=50, seed=0)
        # 3-point grid on [10, 20]: 13.3, 16.7, 20 -> feasible (t1 = 20).
        scan = bf.scan(d, cm)
        assert scan.best_t1 == pytest.approx(20.0)
