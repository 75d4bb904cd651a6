"""BRUTE-FORCE: batched scan and screened winner vs the per-candidate loop.

``scan()`` costs the whole grid with the bit-identical matrix kernel, and
``sequence()`` finds only the winner with the moments screen plus a matrix
re-cost of the near-ties.  Both must reproduce the historical
per-candidate loop (``tests/strategies/bf_reference.py``) exactly: the same
feasibility, the same costs, and the same first-index winner.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import BruteForce, CostModel, paper_distributions
from repro.distributions.registry import PAPER_ORDER
from tests.strategies.bf_reference import reference_scan

COST_MODELS = {
    "reservation_only": CostModel.reservation_only(),
    "neurohpc": CostModel.neurohpc(),
}


@pytest.mark.parametrize("cm_name", sorted(COST_MODELS))
@pytest.mark.parametrize("law", PAPER_ORDER)
def test_scan_and_screened_winner_match_the_loop(law, cm_name):
    d = paper_distributions()[law]
    cm = COST_MODELS[cm_name]
    bf = BruteForce(m_grid=60, n_samples=300, seed=4)
    samples = d.rvs(300, seed=11)
    t1s, costs, best_t1, best_cost = reference_scan(bf, d, cm, samples)

    scan = bf.scan(d, cm, samples=samples)
    assert [p.t1 for p in scan.points] == t1s
    assert [p.expected_cost for p in scan.points] == costs
    assert (scan.best_t1, scan.best_cost) == (best_t1, best_cost)

    assert bf.best_candidate(d, cm, samples=samples) == (best_t1, best_cost)
    assert bf.sequence(d, cm, samples=samples).values[0] == best_t1


def test_batch_knob_is_gone():
    with pytest.raises(TypeError):
        BruteForce(batch=False)


def test_paper_default_sequence_never_builds_the_cost_matrix():
    """M=5000 x N=1000 would be a 38 MiB cost matrix plus its gathers
    (230 MiB peak when the winner came from the full matrix)."""
    d = paper_distributions()["lognormal"]
    cm = CostModel.reservation_only()
    bf = BruteForce(seed=0)
    tracemalloc.start()
    try:
        bf.sequence(d, cm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
