"""RS201 across modules: seed provenance and entry-point attribution."""

from tests.analysis.conftest import rule_ids


def test_unseeded_default_rng_deep_in_helper_fires(lint):
    """An entry point two modules away from an unseeded ``default_rng()``:
    the finding names the entry point whose replays it breaks, which only
    the call graph can tell."""
    result = lint(
        {
            "sim/mc.py": """\
                from sim.inner import estimate

                def monte_carlo_cost(values, seed):
                    return estimate(values)
            """,
            "sim/inner.py": """\
                from sim.draws import draw

                def estimate(values):
                    return draw(values)
            """,
            "sim/draws.py": """\
                import numpy as np

                def draw(values):
                    rng = np.random.default_rng()
                    return rng.standard_normal()
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    finding = result.findings[0]
    assert finding.path.endswith("sim/draws.py")
    assert "default_rng()" in finding.message
    assert "monte_carlo_cost" in finding.message  # entry attribution


def test_seed_threaded_through_helper_passes(lint):
    result = lint(
        {
            "sim/mc.py": """\
                from sim.draws import draw

                def monte_carlo_cost(values, seed):
                    return draw(values, seed)
            """,
            "sim/draws.py": """\
                import numpy as np

                def draw(values, seed):
                    rng = np.random.default_rng(seed)
                    return rng.standard_normal()
            """,
        },
        rule="RS201",
    )
    assert result.findings == []


def test_helper_not_reachable_from_entry_fires(lint):
    """An unseeded draw is flagged wherever it is; reachability from a
    seeded entry point only adds the entry point to the message."""
    result = lint(
        {
            "sim/other.py": """\
                import numpy as np

                def unrelated():
                    return np.random.default_rng().standard_normal()
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert result.findings[0].line == 4
    assert "entry point" not in result.findings[0].message


def test_legacy_global_draw_on_entry_path_fires(lint):
    result = lint(
        {
            "sim/mc.py": """\
                import numpy as np

                def batch_kernel(shape, seed):
                    return np.random.normal(size=shape)
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert "legacy global-state RNG" in result.findings[0].message


def test_stdlib_random_on_entry_path_fires(lint):
    result = lint(
        {
            "sim/mc.py": """\
                import random
                from sim.jitter import jitter

                def spot_monte_carlo_cost(values, seed):
                    return jitter(values)
            """,
            "sim/jitter.py": """\
                import random

                def jitter(values):
                    return [v + random.random() for v in values]
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert "hidden global" in result.findings[0].message


def test_callback_edge_extends_reachability(lint):
    """A task handed to a runner as a *reference* is still on the entry's
    path: the ref edge carries the taint walk into the callback."""
    result = lint(
        {
            "sim/mc.py": """\
                from sim.pool import run_all
                from sim.task import chunk_task

                def monte_carlo_many(specs, seed):
                    return run_all(chunk_task, specs)
            """,
            "sim/pool.py": """\
                def run_all(fn, items):
                    return [fn(item) for item in items]
            """,
            "sim/task.py": """\
                import numpy as np

                def chunk_task(spec):
                    return np.random.default_rng().normal()
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert result.findings[0].path.endswith("sim/task.py")


def test_dropped_seed_default_none_fires(lint):
    """Caller holds seed provenance but omits the callee's seed=None
    parameter: the callee silently falls back to fresh entropy."""
    result = lint(
        {
            "sim/mc.py": """\
                from sim.draws import sample

                def monte_carlo_cost(values, seed):
                    return sample(values)
            """,
            "sim/draws.py": """\
                import numpy as np

                def sample(values, seed=None):
                    rng = np.random.default_rng(seed)
                    return rng.normal()
            """,
        },
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    finding = result.findings[0]
    assert finding.path.endswith("sim/mc.py")
    assert "omits its `seed` parameter" in finding.message


def test_passing_the_seed_satisfies_dropped_seed_check(lint):
    result = lint(
        {
            "sim/mc.py": """\
                from sim.draws import sample

                def monte_carlo_cost(values, seed):
                    return sample(values, seed=seed)
            """,
            "sim/draws.py": """\
                import numpy as np

                def sample(values, seed=None):
                    rng = np.random.default_rng(seed)
                    return rng.normal()
            """,
        },
        rule="RS201",
    )
    assert result.findings == []


def test_utils_rng_module_is_exempt(lint):
    """The sanctioned seed-plumbing module may construct generators."""
    result = lint(
        {
            "sim/mc.py": """\
                from utils.rng import fresh

                def monte_carlo_cost(values, seed):
                    return fresh()
            """,
            "utils/rng.py": """\
                import numpy as np

                def fresh():
                    return np.random.default_rng()
            """,
        },
        rule="RS201",
    )
    assert result.findings == []


def test_inline_suppression_lands_in_suppressed(lint):
    result = lint(
        {
            "sim/mc.py": """\
                import numpy as np

                def monte_carlo_cost(values, seed):
                    rng = np.random.default_rng()  # repro-lint: disable=RS201 -- torn seed is this test's subject
                    return rng.normal()
            """,
        },
        rule="RS201",
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS201"]


def test_definition_time_draws_fire(lint):
    """Module-level code covers what runs at import time: class bodies,
    decorators and default values, not just top-level statements."""
    result = lint(
        {
            "sim/defaults.py": """\
                import random

                import numpy as np

                class Jitter:
                    scale = random.random()

                    def draw(self, rng=np.random.default_rng()):
                        return rng.normal() * self.scale
            """,
        },
        rule="RS201",
    )
    assert [f.line for f in result.findings] == [6, 8]
