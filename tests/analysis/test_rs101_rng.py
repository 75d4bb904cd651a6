"""RS201, one module at a time: unseeded / global RNG draws.

These cases need no call graph: RS201 checks every function and module-level
code, so a draw is flagged whether or not a seeded entry point reaches it.
The cross-module cases are in ``test_rs201_seed_taint.py``.
"""

from tests.analysis.conftest import rule_ids


def test_legacy_np_random_call_fires(lint):
    result = lint(
        {"mod.py": """\
            import numpy as np
            x = np.random.rand(10)
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert "np.random.rand" in result.findings[0].message


def test_np_random_seed_fires_even_aliased(lint):
    result = lint(
        {"mod.py": """\
            import numpy as renamed
            renamed.random.seed(0)
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]


def test_stdlib_random_module_fires(lint):
    result = lint(
        {"mod.py": """\
            import random
            v = random.gauss(0.0, 1.0)
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]
    assert "global stream" in result.findings[0].message


def test_from_random_import_fires(lint):
    result = lint(
        {"mod.py": """\
            from random import shuffle
            shuffle([1, 2, 3])
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]


def test_argless_default_rng_fires(lint):
    result = lint(
        {"mod.py": """\
            from numpy.random import default_rng
            rng = default_rng()
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]


def test_default_rng_none_fires(lint):
    result = lint(
        {"mod.py": """\
            import numpy as np
            rng = np.random.default_rng(None)
        """},
        rule="RS201",
    )
    assert rule_ids(result) == ["RS201"]


def test_seeded_default_rng_and_generator_types_pass(lint):
    result = lint(
        {"mod.py": """\
            import numpy as np

            def sample(seed):
                if isinstance(seed, np.random.Generator):
                    return seed
                seq = np.random.SeedSequence(seed)
                return np.random.default_rng(seq)
        """},
        rule="RS201",
    )
    assert result.findings == []


def test_local_variable_named_random_passes(lint):
    # No `import random`: a local callable named `random` is not the module.
    result = lint(
        {"mod.py": """\
            def pick(random):
                return random()
        """},
        rule="RS201",
    )
    assert result.findings == []


def test_utils_rng_module_is_whitelisted(lint):
    result = lint(
        {"utils/rng.py": """\
            import numpy as np

            def as_generator(seed=None):
                return np.random.default_rng(seed)

            FRESH = np.random.default_rng()
        """},
        rule="RS201",
    )
    assert result.findings == []


def test_suppression_silences_the_line(lint):
    result = lint(
        {"mod.py": """\
            import numpy as np
            a = np.random.rand(3)  # repro-lint: disable=RS201 -- legacy shim
            b = np.random.rand(3)
        """},
        rule="RS201",
    )
    assert [f.line for f in result.findings] == [3]
    assert [f.line for f in result.suppressed] == [2]
