"""One pooled Monte-Carlo path, on the pool its caller built.

Every pool — thread, process, or a caller's own
:class:`ExecutionBackend` — runs the same worker-draw chunk task on the
same ``SeedSequence``-spawned streams, one chunk per worker of the pool.
So:

* the pooled single-sequence estimate is bit-identical on every pool for a
  fixed seed and worker count, for every paper law x strategy the planner
  serves (including bounded laws whose extenders only converge toward the
  bound);
* ``monte_carlo_many`` is bit-identical on every backend form;
* golden answers pin every pool form across commits, and every pinned
  ``std_error`` is the two-pass ``np.std(ddof=1) / sqrt(n)`` of the same
  draws, however the samples were chunked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.lognormal import LogNormal
from repro.distributions.registry import PAPER_ORDER, paper_distribution
from repro.distributions.uniform import Uniform
from repro.platforms.spot import (
    ConstantHazard,
    ConstantPrice,
    SpotScenario,
    spot_monte_carlo_cost,
)
from repro.platforms.spot.evaluator import _simulate_spot_paths
from repro.service.pool import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    chunk_sizes,
)
from repro.simulation.batch import monte_carlo_many
from repro.simulation.monte_carlo import (
    _partial,
    _result_from_partials,
    costs_for_times,
    monte_carlo_expected_cost,
)
from repro.strategies.registry import PAPER_STRATEGY_ORDER, make_strategy
from repro.utils.rng import as_generator, spawn_seed_sequences

CM = CostModel()


# ----------------------------------------------------------------------
# Every paper law x strategy at the planner's call shape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pools():
    with ThreadBackend(2) as thread, ProcessBackend(2) as process:
        yield thread, process


def _planned(law: str, strategy: str):
    """The planner's sequence: the strategy's plan, extended to Q(0.999)."""
    d = paper_distribution(law)
    knobs = {"seed": 0, "m_grid": 200} if strategy == "brute_force" else {}
    seq = make_strategy(strategy, **knobs).sequence(d, CM)
    seq.ensure_covers(float(d.quantile(0.999)))
    return seq


@pytest.mark.parametrize("strategy", PAPER_STRATEGY_ORDER)
@pytest.mark.parametrize("law", PAPER_ORDER)
def test_thread_process_and_many_agree_bit_for_bit(law, strategy, pools):
    thread_pool, process_pool = pools
    d = paper_distribution(law)
    kwargs = dict(n_samples=5000, seed=0)

    thread = monte_carlo_expected_cost(
        _planned(law, strategy), d, CM, backend=thread_pool, **kwargs
    )
    process = monte_carlo_expected_cost(
        _planned(law, strategy), d, CM, backend=process_pool, **kwargs
    )
    assert thread == process  # frozen dataclass: every field

    many = [
        monte_carlo_many(
            [_planned(law, strategy)], d, CM, n_samples=5000, seed=0,
            backend=backend,
        )[0]
        for backend in (None, thread_pool, process_pool)
    ]
    assert many[0] == many[1] == many[2]
    # monte_carlo_many's first stream is the serial kernel on that child.
    child = np.random.SeedSequence(0).spawn(1)[0]
    serial = monte_carlo_expected_cost(
        _planned(law, strategy), d, CM, n_samples=5000, seed=child
    )
    assert many[0].mean_cost == serial.mean_cost


# ----------------------------------------------------------------------
# Both pooled kernels x every backend form
# ----------------------------------------------------------------------
LAW = LogNormal(3.0, 0.5)
JOBS = 2


class _InlineBackend(ExecutionBackend):
    """A minimal caller-defined backend: inline ``map``, no pool at all,
    chunking like a pool of ``JOBS`` workers."""

    kind = "inline"
    jobs = JOBS

    def map(self, fn, items, timeout=None, retries=0):
        return [fn(item) for item in items]


#: Backend forms; each builds a fresh object per test.
FORMS = {
    "none": lambda: None,
    "SerialBackend": lambda: SerialBackend(),
    "ThreadBackend": lambda: ThreadBackend(JOBS),
    "ProcessBackend": lambda: ProcessBackend(JOBS),
    "custom": lambda: _InlineBackend(),
}


def _sequences(k: int = 4):
    return [
        make_strategy("mean_by_mean").sequence(LAW, CM)
        for _ in range(k)
    ]


def _mc(backend):
    seq = _sequences(1)[0]
    return monte_carlo_expected_cost(
        seq, LAW, CM, n_samples=3000, seed=11, backend=backend
    )


def _mc_serial():
    seq = _sequences(1)[0]
    return monte_carlo_expected_cost(seq, LAW, CM, n_samples=3000, seed=11)


def _many(backend):
    return monte_carlo_many(
        _sequences(), LAW, CM, n_samples=400, seed=5, backend=backend,
    )


KERNELS = {"mc": _mc, "many": _many}


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_every_backend_form_matches_the_reference(kernel, form):
    run = KERNELS[kernel]
    if kernel == "mc":
        # The MC references are explicit: the serial kernel (for the forms
        # that run no pool), or the chunks mapped inline.
        serial = form in ("none", "SerialBackend")
        reference = _mc_serial() if serial else run(_InlineBackend())
    else:
        reference = run(None)

    backend = FORMS[form]()
    try:
        assert run(backend) == reference
    finally:
        if backend is not None:
            backend.close()


# ----------------------------------------------------------------------
# Golden answers: every pool form, pinned across commits
# ----------------------------------------------------------------------
#: ``(mean_cost.hex(), std_error.hex(), max_reservations_hit)`` of a
#: 5000-sample, seed-2019 estimate of the planned MEAN-BY-MEAN sequence:
#: ``(inline, pooled)`` per law.  No backend and ``SerialBackend()`` run the
#: serial kernel; a two-worker thread or process pool draws two spawned
#: chunks.  A change that moves any sample, stream or chunk boundary moves
#: these bits.
GOLDEN_MC = {
    "lognormal": (
        ("0x1.81585249b5096p+5", "0x1.586c59ea1b0e0p-1", 9),
        ("0x1.8215b34d90db4p+5", "0x1.632f45a9f9c62p-1", 11),
    ),
    "weibull": (
        ("0x1.7599bee327c8bp+2", "0x1.7b855dddcffdcp-3", 8),
        ("0x1.73d677f34fa0bp+2", "0x1.a66ba1413f322p-3", 10),
    ),
    "uniform": (
        ("0x1.0beb0a3d70a3dp+5", "0x1.873a139c27e9dp-2", 12),
        ("0x1.0a4bb16a7ef9ep+5", "0x1.84370ce0e5d1cp-2", 17),
    ),
}

#: ``monte_carlo_many`` on three planned lognormal sequences, 2000
#: samples each, seed 5: one triple per sequence, on every backend.
GOLDEN_MANY_STRATEGIES = ("mean_by_mean", "mean_doubling", "median_by_median")
GOLDEN_MANY = [
    ("0x1.87190976361d0p+5", "0x1.1f5227462c0c4p+0", 10),
    ("0x1.653d43a466efbp+5", "0x1.88bc3c0a6000ep-1", 4),
    ("0x1.c97c4dc752847p+5", "0x1.703e6bdd3ad4ep+0", 11),
]

#: Checkpointed spot estimate: ``(mean_cost, std_error, mean_busy_time,
#: mean_interruptions)`` as ``float.hex()``.
GOLDEN_SPOT = (
    "0x1.ae875bc833de1p-2",
    "0x1.13cfed5011c73p-7",
    "0x1.66c621d1808e5p+0",
    "0x1.2666666666666p+0",
)


def _golden(result):
    return (
        result.mean_cost.hex(),
        result.std_error.hex(),
        result.max_reservations_hit,
    )


def _two_pass_std_error(costs) -> float:
    return float(np.std(costs, ddof=1) / np.sqrt(costs.size))


def _chunked_costs(sequence, law, n_samples, seed, n_chunks, cost_model=CM):
    """The draws a pooled estimate costs: chunk ``i`` from spawned stream ``i``."""
    sizes = chunk_sizes(n_samples, n_chunks)
    return np.concatenate([
        costs_for_times(
            sequence, law.rvs(size, seed=np.random.default_rng(child)), cost_model
        )
        for size, child in zip(sizes, spawn_seed_sequences(seed, len(sizes)))
    ])


def assert_two_pass(std_error: float, costs) -> None:
    assert std_error == pytest.approx(_two_pass_std_error(costs), rel=1e-12, abs=0)


class TestGoldenAnswers:
    @pytest.mark.parametrize(
        "form", ["none", "SerialBackend", "ThreadBackend", "ProcessBackend"]
    )
    @pytest.mark.parametrize("law", list(GOLDEN_MC))
    def test_single_estimate(self, law, form, pools):
        thread_pool, process_pool = pools
        backend = {
            "none": None,
            "SerialBackend": SerialBackend(),
            "ThreadBackend": thread_pool,
            "ProcessBackend": process_pool,
        }[form]
        result = monte_carlo_expected_cost(
            _planned(law, "mean_by_mean"), paper_distribution(law), CM,
            n_samples=5000, seed=2019, backend=backend,
        )
        pooled = form in ("ThreadBackend", "ProcessBackend")
        assert _golden(result) == GOLDEN_MC[law][pooled]

        seq, d = _planned(law, "mean_by_mean"), paper_distribution(law)
        if pooled:
            costs = _chunked_costs(seq, d, 5000, 2019, backend.jobs)
        else:
            costs = costs_for_times(seq, d.rvs(5000, seed=as_generator(2019)), CM)
        assert_two_pass(result.std_error, costs)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_many(self, pooled, pools):
        results = monte_carlo_many(
            [_planned("lognormal", s) for s in GOLDEN_MANY_STRATEGIES],
            paper_distribution("lognormal"), CM, n_samples=2000, seed=5,
            backend=pools[1] if pooled else None,
        )
        assert [_golden(r) for r in results] == GOLDEN_MANY

        d = paper_distribution("lognormal")
        children = spawn_seed_sequences(5, len(GOLDEN_MANY_STRATEGIES))
        for strategy, child, result in zip(GOLDEN_MANY_STRATEGIES, children, results):
            times = d.rvs(2000, seed=np.random.default_rng(child))
            costs = costs_for_times(_planned("lognormal", strategy), times, CM)
            assert_two_pass(result.std_error, costs)

    def test_checkpointed_spot(self):
        scenario = SpotScenario(
            price=ConstantPrice(0.3), hazard=ConstantHazard(0.8), step=0.05
        )
        job = LogNormal(0.0, 0.3)
        result = spot_monte_carlo_cost(
            job, scenario, recovery="checkpoint",
            checkpoint_interval=0.5, n_paths=400, seed=17,
        )
        assert (
            result.mean_cost.hex(),
            result.std_error.hex(),
            result.mean_busy_time.hex(),
            result.mean_interruptions.hex(),
        ) == GOLDEN_SPOT

        rng = as_generator(spawn_seed_sequences(17, 1)[0])
        lengths = np.asarray(job.rvs(400, seed=rng), dtype=float)
        costs, *_ = _simulate_spot_paths(lengths, scenario, 0.5, rng)
        assert_two_pass(result.std_error, costs)


def test_pooled_std_error_survives_a_spread_far_below_the_mean():
    """Costs near 2e7 that spread over 0.01: a raw ``sum_sq - n * mean**2``
    merge cancels to exactly 0, the two-pass form keeps every digit that
    matters."""
    law = Uniform(1e7, 1e7 + 0.01)
    cost_model = CostModel(alpha=1.0, beta=1.0)
    seq = ReservationSequence([1e7 + 0.01])
    exact = 0.01 / np.sqrt(12.0) / np.sqrt(100_000)
    serial = monte_carlo_expected_cost(seq, law, cost_model, n_samples=100_000, seed=1)
    with ThreadBackend(2) as pool:
        pooled = monte_carlo_expected_cost(
            seq, law, cost_model, n_samples=100_000, seed=1, backend=pool
        )
    assert serial.std_error == pytest.approx(exact, rel=0.01)
    assert pooled.std_error == pytest.approx(exact, rel=0.01)
    costs = _chunked_costs(seq, law, 100_000, 1, 2, cost_model)
    assert pooled.std_error == pytest.approx(_two_pass_std_error(costs), rel=1e-6)


@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 64])
def test_chunk_partials_merge_to_the_two_pass_estimate(n_chunks):
    """However costs of the paper's scale are chunked, the merged partials
    give the plain mean and the two-pass standard error of all of them."""
    rng = np.random.default_rng(n_chunks)
    costs = rng.lognormal(3.0, 0.5, size=1001)
    indices = rng.integers(0, 20, size=costs.size)
    partials = [
        _partial(c, k)
        for c, k in zip(
            np.array_split(costs, n_chunks), np.array_split(indices, n_chunks)
        )
    ]
    result = _result_from_partials(partials, 20)
    assert result.n_samples == costs.size
    assert result.n_reservations_used == 20
    assert result.max_reservations_hit == int(indices.max()) + 1
    assert result.mean_cost == pytest.approx(costs.mean(), rel=1e-12, abs=0)
    assert_two_pass(result.std_error, costs)


def test_a_single_sample_has_zero_std_error_serial_and_pooled():
    seq = _sequences(1)[0]
    serial = monte_carlo_expected_cost(seq, LAW, CM, n_samples=1, seed=3)
    with ThreadBackend(JOBS) as pool:
        pooled = monte_carlo_expected_cost(
            seq, LAW, CM, n_samples=1, seed=3, backend=pool
        )
    assert serial.std_error == pooled.std_error == 0.0
    assert serial.n_samples == pooled.n_samples == 1
    assert serial.mean_cost == pooled.mean_cost


# ----------------------------------------------------------------------
# A chunk that outruns the pre-extended horizon
# ----------------------------------------------------------------------
def test_uncovered_chunks_are_redrawn_from_their_own_streams(
    pools, monkeypatch, enabled_obs
):
    """With the horizon cut to the median, most chunks outrun their
    pre-extended sequence; the runner redraws each from its own stream and
    costs it with the live extender, so no answer moves."""
    from repro.simulation import monte_carlo

    thread_pool, _ = pools

    def short():
        return ReservationSequence(
            [float(LAW.quantile(0.1))], extend=lambda v: float(v[-1]) * 2.0
        )

    def run():
        single = monte_carlo_expected_cost(
            short(), LAW, CM, n_samples=3000, seed=11, backend=thread_pool
        )
        many = monte_carlo_many(
            [short() for _ in range(4)], LAW, CM, n_samples=400, seed=5,
            backend=thread_pool,
        )
        return [_golden(single)] + [_golden(r) for r in many]

    registry, _ = enabled_obs
    full = run()
    assert registry.counter("mc.chunk_fallbacks").value == 0
    monkeypatch.setattr(monte_carlo, "PROCESS_COVERAGE_TAIL", 0.5)
    assert run() == full
    assert registry.counter("mc.chunk_fallbacks").value == JOBS + 4
