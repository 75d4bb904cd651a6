"""Stability tests for the content-hash plan cache keys.

The whole caching story rests on three properties of ``plan_key``:

1. *Determinism* — equal inputs give equal keys, regardless of how the
   distribution object was constructed (kwarg order, sample order, numpy vs
   builtin scalars) and across processes (no ``PYTHONHASHSEED`` leakage);
2. *Sensitivity* — perturbing any keyed field (a distribution parameter, a
   cost-model coefficient, a strategy knob, the coverage) changes the key;
3. *Round-trip* — ``make_distribution(d.name, **d.params())`` rebuilds a
   distribution with the same key, so snapshots stay valid across restarts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.registry import (
    PAPER_ORDER,
    make_distribution,
    paper_distributions,
)
from repro.service.keys import (
    KEY_VERSION,
    canonical_json,
    distribution_token,
    plan_key,
    strategy_token,
)

CM = CostModel(alpha=1.0, beta=0.25, gamma=0.1)


# ----------------------------------------------------------------------
# canonical_json
# ----------------------------------------------------------------------
class TestCanonicalJson:
    def test_mapping_order_never_leaks(self):
        assert canonical_json({"a": 1.0, "b": 2.0}) == canonical_json(
            {"b": 2.0, "a": 1.0}
        )

    def test_floats_are_exact(self):
        # 0.1 + 0.2 != 0.3: hex encoding must distinguish them.
        assert canonical_json({"x": 0.1 + 0.2}) != canonical_json({"x": 0.3})
        assert float.fromhex(json.loads(canonical_json(0.1 + 0.2))) == 0.1 + 0.2

    def test_numpy_scalars_match_builtins(self):
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.array([1.0, 2.0])) == canonical_json([1.0, 2.0])

    def test_bool_is_not_int(self):
        assert canonical_json(True) != canonical_json(1)

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json({"f": lambda: None})


# ----------------------------------------------------------------------
# Determinism / equality
# ----------------------------------------------------------------------
class TestKeyEquality:
    def test_kwarg_order_is_irrelevant(self):
        a = make_distribution("lognormal", mu=3.0, sigma=0.5)
        b = make_distribution("lognormal", sigma=0.5, mu=3.0)
        assert plan_key(a, CM, "mean_by_mean") == plan_key(b, CM, "mean_by_mean")

    def test_numpy_parameters_match_builtins(self):
        a = make_distribution("weibull", scale=1.0, shape=0.5)
        b = make_distribution(
            "weibull", scale=np.float64(1.0), shape=np.float64(0.5)
        )
        assert plan_key(a, CM, "mean_by_mean") == plan_key(b, CM, "mean_by_mean")

    def test_empirical_sample_order_is_irrelevant(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(1.0, 0.3, size=64)
        a = EmpiricalDistribution(samples)
        b = EmpiricalDistribution(samples[::-1].copy())
        assert plan_key(a, CM, "mean_by_mean") == plan_key(b, CM, "mean_by_mean")

    def test_strategy_name_is_normalized(self):
        d = make_distribution("exponential", rate=1.0)
        assert plan_key(d, CM, "mean-by-mean") == plan_key(d, CM, "MEAN_BY_MEAN")

    def test_params_roundtrip_preserves_key(self):
        for name, dist in paper_distributions().items():
            rebuilt = make_distribution(dist.name, **dist.params())
            assert plan_key(dist, CM, "mean_by_mean") == plan_key(
                rebuilt, CM, "mean_by_mean"
            ), name


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
class TestKeySensitivity:
    def test_every_distribution_parameter_matters(self):
        # Perturb each params() entry of each paper law in turn; every
        # perturbation must move the key.
        for name in PAPER_ORDER:
            dist = paper_distributions()[name]
            base_key = plan_key(dist, CM, "mean_by_mean")
            for pname, pvalue in dist.params().items():
                perturbed = dict(dist.params())
                perturbed[pname] = float(pvalue) * 1.5 + 0.25
                try:
                    other = make_distribution(dist.name, **perturbed)
                except ValueError:
                    # Perturbation left the law's valid domain (e.g. beta
                    # support bounds); nudge the other way instead.
                    perturbed[pname] = float(pvalue) * 0.5
                    other = make_distribution(dist.name, **perturbed)
                assert plan_key(other, CM, "mean_by_mean") != base_key, (
                    f"{name}.{pname} perturbation did not change the key"
                )

    def test_different_laws_same_params_differ(self):
        a = make_distribution("exponential", rate=1.0)
        token = distribution_token(a)
        assert token["law"] == "exponential"
        b = make_distribution("gamma", shape=1.0, rate=1.0)
        # Exp(1) == Gamma(1, 1) as a law, but the key is content-based.
        assert plan_key(a, CM, "mean_by_mean") != plan_key(b, CM, "mean_by_mean")

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_cost_model_coefficients_matter(self, field):
        d = make_distribution("lognormal", mu=3.0, sigma=0.5)
        other = CostModel(
            alpha=CM.alpha + (0.5 if field == "alpha" else 0.0),
            beta=CM.beta + (0.5 if field == "beta" else 0.0),
            gamma=CM.gamma + (0.5 if field == "gamma" else 0.0),
        )
        assert plan_key(d, CM, "mean_by_mean") != plan_key(d, other, "mean_by_mean")

    def test_strategy_and_knobs_matter(self):
        d = make_distribution("lognormal", mu=3.0, sigma=0.5)
        base = plan_key(d, CM, "mean_by_mean")
        assert plan_key(d, CM, "median_by_median") != base
        assert plan_key(d, CM, "mean_by_mean", knobs={"seed": 1}) != base
        assert plan_key(d, CM, "mean_by_mean", knobs={"seed": 1}) != plan_key(
            d, CM, "mean_by_mean", knobs={"seed": 2}
        )

    def test_coverage_matters(self):
        d = make_distribution("exponential", rate=2.0)
        assert plan_key(d, CM, "mean_by_mean", coverage=0.999) != plan_key(
            d, CM, "mean_by_mean", coverage=0.9999
        )

    def test_strategy_token_shape(self):
        token = strategy_token("Mean-By-Mean", {"seed": 3})
        assert token == {"name": "mean_by_mean", "knobs": {"seed": 3}}


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------
#: One plan request per law: (law, params, strategy, knobs) -> digest.
#: Shard journals persist these keys across restarts, so a change to the
#: canonical encoding that moves any of them orphans every journaled plan
#: (bump ``KEY_VERSION`` on purpose instead).
GOLDEN_KEYS = [
    ("exponential", {"rate": 1.0}, "brute_force", {"m_grid": 200, "seed": 1},
     "bd517cb69dc674423aab1346a4a12e445980f075f3004f7f647bd7172f398592"),
    ("weibull", {"scale": 1.0, "shape": 0.5}, "mean_by_mean", {},
     "abfd71c53577a378c9dacac35a8cc7563e75a46263ff2f3e352788cd5f931f7e"),
    ("gamma", {"shape": 2.0, "rate": 2.0}, "mean_stdev", {},
     "fc31c15b3b85ef16a150cd5eef41a6735828e70828bf24574cb5458ffcc2272a"),
    ("lognormal", {"mu": 3.0, "sigma": 0.5}, "mean_doubling", {},
     "af1c3af76cc4415686d707cd451f7f500376cb9f055827aa6b61f8a7a2379fda"),
    ("truncated_normal", {"mu": 8.0, "sigma2": 2.0, "a": 0.0},
     "median_by_median", {},
     "4c697c3d457720171799ee0e3c28d24d4d0e613cbb51f397472b5551e7ea62ee"),
    ("pareto", {"scale": 1.5, "alpha": 3.0}, "equal_time_dp", {"n": 500},
     "c025dc6477f11c0d6bd6d35e032881f6d609f12957f5d931741fc2ecd0128e4d"),
    ("uniform", {"a": 10.0, "b": 20.0}, "equal_probability_dp", {"n": 500},
     "d700582927bd03f799ea92d84776dbcf21f6a10670d520043fa083cb89a00d46"),
    ("beta", {"alpha": 2.0, "beta": 2.0}, "brute_force", {"m_grid": 200, "seed": 7},
     "4951fc1a271bd109b8bcd02e55d131b81f1e382ed1a5be1070134e4a13e41376"),
    ("bounded_pareto", {"low": 1.0, "high": 20.0, "alpha": 2.1}, "mean_by_mean", {},
     "6ab2541a8ee666818cffed2a711d293b1e0eb2169dd1768b1d16a3140f4f9d56"),
]


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "law, params, strategy, knobs, digest",
        GOLDEN_KEYS,
        ids=[case[0] for case in GOLDEN_KEYS],
    )
    def test_one_request_per_law(self, law, params, strategy, knobs, digest):
        dist = make_distribution(law, **params)
        assert plan_key(dist, CM, strategy, knobs=knobs, coverage=0.999) == digest

    def test_all_nine_laws_are_pinned(self):
        assert sorted(case[0] for case in GOLDEN_KEYS) == sorted(PAPER_ORDER)

    def test_numpy_parameters_and_knobs(self):
        dist = make_distribution(
            "weibull", scale=np.float64(1.0), shape=np.float64(0.5)
        )
        knobs = {
            "m_grid": np.int64(200),
            "seed": np.int32(3),
            "grid": np.array([0.5, 1.0]),
            "flag": True,
            "none": None,
        }
        key = plan_key(dist, CM, "brute_force", knobs=knobs, coverage=np.float64(0.999))
        assert key == "e3d8cb878bd993114dae1b22ca077ebf6567f1191a706e642caf3f31a48a783c"
        builtins = {"m_grid": 200, "seed": 3, "grid": [0.5, 1.0]}
        assert key == plan_key(
            make_distribution("weibull", scale=1.0, shape=0.5),
            CM,
            "brute_force",
            knobs={**knobs, **builtins},
            coverage=0.999,
        )

    def test_empirical_distribution(self):
        dist = EmpiricalDistribution(
            [3.5, 1.25, 2.0, 7.75, 2.0, 0.5, 11.0, 4.25, 6.0, 9.5, 2.0, 5.125]
        )
        key = plan_key(dist, CM, "mean_by_mean", coverage=0.99)
        assert key == "e53f2a58cb7d04003c90fefee94f7e812d7a1878779bea8245e12539136bbfec"


# ----------------------------------------------------------------------
# Cross-process stability
# ----------------------------------------------------------------------
_SUBPROCESS_SNIPPET = """\
import json, sys
from repro.core.cost import CostModel
from repro.distributions.registry import make_distribution
from repro.service.keys import plan_key
d = make_distribution("lognormal", mu=3.0, sigma=0.5)
cm = CostModel(alpha=1.0, beta=0.25, gamma=0.1)
print(plan_key(d, cm, "mean_by_mean", knobs={"seed": 7}, coverage=0.999))
"""


def test_keys_stable_across_processes():
    """Same inputs in a fresh interpreter (fresh hash randomization, fresh
    numpy) must produce the same key — the property snapshots depend on."""
    here = plan_key(
        make_distribution("lognormal", mu=3.0, sigma=0.5),
        CostModel(alpha=1.0, beta=0.25, gamma=0.1),
        "mean_by_mean",
        knobs={"seed": 7},
        coverage=0.999,
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONHASHSEED"] = "random"
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == here
    assert len(here) == 64  # sha256 hex


def test_key_version_is_embedded():
    """Bumping KEY_VERSION must invalidate every key (snapshot safety)."""
    d = make_distribution("exponential", rate=1.0)
    base = plan_key(d, CM, "mean_by_mean")
    import repro.service.keys as keys_mod

    old = keys_mod.KEY_VERSION
    try:
        keys_mod.KEY_VERSION = old + 1
        assert plan_key(d, CM, "mean_by_mean") != base
    finally:
        keys_mod.KEY_VERSION = old
    assert KEY_VERSION == old
