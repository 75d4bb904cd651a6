"""One pooled Monte-Carlo path behind one backend resolver.

Every pool — thread, process, or a caller's own
:class:`ExecutionBackend` — runs the same worker-draw chunk
task on the same ``SeedSequence``-spawned streams, and every kernel
normalizes ``backend=``/``jobs=`` through
:func:`repro.service.pool.resolve_backend`.  So:

* the pooled single-sequence estimate is bit-identical on every pool for a
  fixed ``(seed, jobs)``, for every paper law x strategy the planner serves
  (including bounded laws whose extenders only converge toward the bound);
* ``monte_carlo_many`` and the spot evaluator are bit-identical on every
  backend form, and pools a kernel creates from a name are closed on exit.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.distributions.lognormal import LogNormal
from repro.distributions.registry import PAPER_ORDER, paper_distribution
from repro.platforms.spot import (
    ConstantHazard,
    ConstantPrice,
    SpotScenario,
    spot_monte_carlo_cost,
)
from repro.service.pool import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.simulation.batch import monte_carlo_many
from repro.simulation.monte_carlo import monte_carlo_expected_cost
from repro.strategies.registry import PAPER_STRATEGY_ORDER, make_strategy

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
    kwargs = dict(n_samples=5000, seed=0, jobs=2)

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
# Three pooled kernels x every backend form
# ----------------------------------------------------------------------
class _InlineBackend(ExecutionBackend):
    """A minimal caller-defined backend: inline ``map``, no pool at all."""

    kind = "inline"

    def map(self, fn, items, timeout=None, retries=0):
        return [fn(item) for item in items]


LAW = LogNormal(3.0, 0.5)
JOBS = 2

#: Backend forms; callables build a fresh object per test.
FORMS = {
    "none": None,
    "serial": "serial",
    "thread": "thread",
    "process": "process",
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
        seq, LAW, CM, n_samples=3000, seed=11, jobs=JOBS, backend=backend
    )


def _mc_serial():
    seq = _sequences(1)[0]
    return monte_carlo_expected_cost(seq, LAW, CM, n_samples=3000, seed=11)


def _many(backend):
    return monte_carlo_many(
        _sequences(), LAW, CM, n_samples=400, seed=5, backend=backend,
        jobs=JOBS,
    )


def _spot(backend):
    scenario = SpotScenario(
        price=ConstantPrice(0.3), hazard=ConstantHazard(0.8), step=0.05
    )
    return spot_monte_carlo_cost(
        LogNormal(0.0, 0.3), scenario, recovery="checkpoint",
        checkpoint_interval=0.5, n_paths=400, seed=17, jobs=JOBS,
        backend=backend,
    )


KERNELS = {"mc": _mc, "many": _many, "spot": _spot}


def _live_workers():
    threads = {
        t.ident for t in threading.enumerate() if t.name.startswith("repro-pool")
    }
    children = {p.pid for p in multiprocessing.active_children()}
    return threads, children


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_every_backend_form_matches_the_reference(kernel, form):
    run = KERNELS[kernel]
    if kernel == "mc":
        # jobs=2 with no backend means threads, so both MC references are
        # explicit: the serial kernel (for the forms that resolve to no
        # pool), or the chunks mapped inline.
        serial = form in ("serial", "SerialBackend")
        reference = _mc_serial() if serial else run(_InlineBackend())
    else:
        reference = run(None)

    spec = FORMS[form]
    if callable(spec):
        backend = spec()
        try:
            assert run(backend) == reference
        finally:
            backend.close()
        return

    before_threads, before_children = _live_workers()
    assert run(spec) == reference
    after_threads, after_children = _live_workers()
    assert after_threads <= before_threads, "pool threads left running"
    assert after_children <= before_children, "pool processes left running"

