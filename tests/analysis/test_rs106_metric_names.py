"""RS106: metric-name drift against the canonical names module."""

import pytest

from tests.analysis.conftest import rule_ids

_NAMES = """\
    PLANCACHE_HITS = "plancache.hits"
    PLANCACHE_MISSES = "plancache.misses"
    DYNAMIC_PREFIXES = ("server.responses.",)
"""


def test_canonical_literal_passes(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics

                def hit():
                    metrics.inc("plancache.hits")
            """,
        },
        rule="RS106",
    )
    assert result.findings == []


def test_typo_literal_fires(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics

                def hit():
                    metrics.inc("plancache.hit")
            """,
        },
        rule="RS106",
    )
    assert rule_ids(result) == ["RS106"]
    assert "plancache.hit" in result.findings[0].message


def test_dynamic_prefix_fstring_passes(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics

                def respond(status):
                    metrics.inc(f"server.responses.{status}")
            """,
        },
        rule="RS106",
    )
    assert result.findings == []


def test_unregistered_fstring_fires(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics

                def respond(kind):
                    metrics.inc(f"adhoc.{kind}")
            """,
        },
        rule="RS106",
    )
    assert rule_ids(result) == ["RS106"]


def test_names_constant_reference_passes(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics
                from repro.observability import names

                def miss():
                    metrics.inc(names.PLANCACHE_MISSES)
            """,
        },
        rule="RS106",
    )
    assert result.findings == []


def test_nonexistent_constant_fires(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics
                from repro.observability import names

                def miss():
                    metrics.inc(names.PLANCACHE_EVICTIONS)
            """,
        },
        rule="RS106",
    )
    assert rule_ids(result) == ["RS106"]
    assert "PLANCACHE_EVICTIONS" in result.findings[0].message


@pytest.mark.parametrize(
    "constant, fires",
    [("PLANCACHE_MISSES", False), ("PLANCACHE_EVICTIONS", True)],
)
def test_relative_import_of_names_resolves(lint, constant, fires):
    """`from ..observability import names` is the same module as its
    absolute twin: a declared constant passes, an undeclared one fires."""
    result = lint(
        {
            "repro/__init__.py": "",
            "repro/observability/__init__.py": "",
            "repro/observability/names.py": _NAMES,
            "repro/service/__init__.py": "",
            "repro/service/mod.py": f"""\
                from ..observability import metrics, names

                def miss():
                    metrics.inc(names.{constant})
            """,
        },
        rule="RS106",
    )
    assert rule_ids(result) == (["RS106"] if fires else [])
    if fires:
        assert f"constant '{constant}' does not exist" in result.findings[0].message


def test_runtime_built_name_fires(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                from observability import metrics

                def record(name):
                    metrics.inc(name)
            """,
        },
        rule="RS106",
    )
    assert rule_ids(result) == ["RS106"]


def test_silent_without_names_module(lint):
    # Nothing to check against: the rule must not guess.
    result = lint(
        {"service/mod.py": """\
            from observability import metrics

            def hit():
                metrics.inc("whatever.name")
        """},
        rule="RS106",
    )
    assert result.findings == []


def test_non_metrics_receiver_is_ignored(lint):
    result = lint(
        {
            "observability/names.py": _NAMES,
            "service/mod.py": """\
                def f(counters):
                    counters.inc("not.a.metric")
            """,
        },
        rule="RS106",
    )
    assert result.findings == []
