"""RS203: injected faults must be dominated by a terminal handler, and no
broad handler may drop the error it catches."""

import textwrap

import pytest

from tests.analysis.conftest import rule_ids


def test_unhandled_fault_escapes_fires(lint):
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def main():
                    risky()
            """,
        },
        rule="RS203",
    )
    assert rule_ids(result) == ["RS203"]
    finding = result.findings[0]
    assert "'db.write'" in finding.message
    assert "uncaught" in finding.message
    assert "main" in finding.message  # names the escape root


def test_terminal_handler_in_caller_passes(lint):
    """A broad handler that *uses* the exception is terminal: the fault is
    absorbed, RS203 stays quiet."""
    result = lint(
        {
            "resilience/worker.py": """\
                import sys

                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def main():
                    try:
                        risky()
                    except Exception as exc:
                        print(f"degraded: {exc}", file=sys.stderr)
            """,
        },
        rule="RS203",
    )
    assert result.findings == []


def test_swallowing_handler_fires(lint):
    """Catching broadly and ignoring the error hides the fault from chaos
    CI entirely — reported at the guard, not the fault site."""
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def main():
                    try:
                        risky()
                    except Exception:
                        pass
            """,
        },
        rule="RS203",
    )
    assert rule_ids(result) == ["RS203"]
    finding = result.findings[0]
    assert "swallows" in finding.message
    assert finding.line == 9  # the except line, not the fire() line


def test_reraising_guard_is_waypoint_not_stop(lint):
    """A retry-style handler that re-raises after cleanup does not absorb
    the fault; with nothing above it, the fault still escapes."""
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def retry():
                    try:
                        risky()
                    except Exception:
                        raise

                def main():
                    retry()
            """,
        },
        rule="RS203",
    )
    assert rule_ids(result) == ["RS203"]
    assert "main" in result.findings[0].message


def test_terminal_handler_above_reraise_passes(lint):
    result = lint(
        {
            "resilience/worker.py": """\
                import sys

                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def retry():
                    try:
                        risky()
                    except Exception:
                        raise

                def main():
                    try:
                        retry()
                    except Exception as exc:
                        print(f"gave up: {exc}", file=sys.stderr)
            """,
        },
        rule="RS203",
    )
    assert result.findings == []


def test_narrow_handler_does_not_stop_injected_fault(lint):
    """``except ValueError`` does not catch InjectedFault; the fault walks
    straight past it."""
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def risky():
                    faults.fire("db.write")

                def main():
                    try:
                        risky()
                    except ValueError:
                        pass
            """,
        },
        rule="RS203",
    )
    assert rule_ids(result) == ["RS203"]
    assert "uncaught" in result.findings[0].message


def test_callback_edge_uses_receiver_guards(lint):
    """A task invoked through a pool's map() is guarded by whatever the
    receiver function wraps around its (unknown) invocation point."""
    result = lint(
        {
            "resilience/pool.py": """\
                import sys

                def run_all(fn, items):
                    out = []
                    for item in items:
                        try:
                            out.append(fn(item))
                        except Exception as exc:
                            print(f"worker died: {exc}", file=sys.stderr)
                    return out
            """,
            "resilience/task.py": """\
                from resilience import faults
                from resilience.pool import run_all

                def chunk(item):
                    faults.fire("mc.chunk")

                def fan_out(items):
                    return run_all(chunk, items)
            """,
        },
        rule="RS203",
    )
    assert result.findings == []


def test_fault_site_guarded_locally_passes(lint):
    result = lint(
        {
            "resilience/worker.py": """\
                import sys

                from resilience import faults

                def risky():
                    try:
                        faults.fire("db.write")
                    except Exception as exc:
                        print(f"absorbed: {exc}", file=sys.stderr)
            """,
        },
        rule="RS203",
    )
    assert result.findings == []


def test_inline_suppression_lands_in_suppressed(lint):
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def risky():
                    faults.fire("db.write")  # repro-lint: disable=RS203 -- raising is this API's contract
            """,
        },
        rule="RS203",
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS203"]


def test_guard_swallowing_two_fault_sites_is_reported_once(lint):
    result = lint(
        {
            "resilience/worker.py": """\
                from resilience import faults

                def read():
                    faults.fire("db.read")

                def write():
                    faults.fire("db.write")

                def main():
                    try:
                        read()
                        write()
                    except Exception:
                        pass
            """,
        },
        rule="RS203",
    )
    assert rule_ids(result) == ["RS203"]
    assert result.findings[0].line == 13
    assert "swallows fault site 'db.read'" in result.findings[0].message


# -- swallows off any fault path ---------------------------------------------
#
# Every broad handler that drops its error is reported, whether or not a
# fault site reaches it; only the message differs.

#: fixture name -> (how the message names the handler, source)
_SWALLOWS = {
    "bare_except_pass": ("bare `except:`", """\
        def f():
            try:
                risky()
            except:
                pass
    """),
    "unused_binding": ("`except Exception`", """\
        def f():
            try:
                risky()
            except Exception as exc:
                return None
    """),
    "broad_in_tuple": ("`except (ValueError, Exception)`", """\
        def f():
            try:
                risky()
            except (ValueError, Exception):
                return 0
    """),
    "module_level": ("bare `except:`", """\
        import sys

        try:
            import yaml
        except:
            pass
    """),
    "nested_class_body": ("`except Exception`", """\
        def f():
            class Inner:
                try:
                    x = compute()
                except Exception:
                    x = None
            return Inner
    """),
}


@pytest.mark.parametrize("name", sorted(_SWALLOWS))
def test_swallow_fires(lint, name):
    what, source = _SWALLOWS[name]
    source = textwrap.dedent(source)
    result = lint({"mod.py": source}, rule="RS203")
    assert rule_ids(result) == ["RS203"]
    finding = result.findings[0]
    assert source.splitlines()[finding.line - 1].lstrip().startswith("except")
    assert finding.message.startswith(f"{what} drops the error; narrow")


@pytest.mark.parametrize(
    "handler",
    [
        "except (ValueError, ArithmeticError):\n        return 0",
        'except Exception as exc:\n        raise RuntimeError("boom") from exc',
        'except Exception as exc:\n        log.warning("failed: %s", exc)',
    ],
    ids=["narrow", "reraise", "uses_error"],
)
def test_kept_error_passes(lint, handler):
    source = f"def f(log):\n    try:\n        risky()\n    {handler}\n"
    assert lint({"mod.py": source}, rule="RS203").findings == []


def test_swallow_suppression_lands_in_suppressed(lint):
    result = lint(
        {"mod.py": """\
            def f():
                try:
                    risky()
                except Exception:  # repro-lint: disable=RS203 -- best-effort cleanup
                    pass
        """},
        rule="RS203",
    )
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS203"]
