"""CLI behaviour: exit codes, formats, baseline workflow, rule selection."""

import json
import textwrap

from repro.analysis.cli import run

_OFFENDER = """\
    import numpy as np
    x = np.random.rand(3)
"""

_CLEAN = """\
    def f(n):
        return n + 1
"""


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_clean_tree_exits_zero(tmp_path, capsys):
    _write(tmp_path, "mod.py", _CLEAN)
    assert run([str(tmp_path)]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_new_finding_exits_one(tmp_path, capsys):
    _write(tmp_path, "mod.py", _OFFENDER)
    assert run([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RS201" in out and "1 new finding(s)" in out


def test_missing_path_exits_two(tmp_path, capsys):
    assert run([str(tmp_path / "nope")]) == 2
    assert "repro-lint:" in capsys.readouterr().err


def test_unknown_rule_exits_two(tmp_path, capsys):
    _write(tmp_path, "mod.py", _CLEAN)
    assert run([str(tmp_path), "--select", "RS999"]) == 2
    assert "RS999" in capsys.readouterr().err


def test_json_format_and_output_file(tmp_path, capsys):
    _write(tmp_path, "mod.py", _OFFENDER)
    report_path = tmp_path / "report.json"
    code = run(
        [str(tmp_path), "--format", "json", "--output", str(report_path)]
    )
    assert code == 1
    doc = json.loads(report_path.read_text())
    assert doc["summary"]["new"] == 1
    assert doc["summary"]["exit_code"] == 1
    assert doc["findings"][0]["rule"] == "RS201"
    # Terminal output stays a one-line verdict when writing to a file.
    assert "report written to" in capsys.readouterr().out


def test_write_baseline_then_gate_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/mod.py", _OFFENDER)
    assert run(["pkg", "--write-baseline"]) == 0
    assert (tmp_path / ".repro-lint-baseline.json").exists()
    # The ratchet: same debt is baselined (exit 0), fresh debt is new.
    assert run(["pkg"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out
    _write(tmp_path, "pkg/fresh.py", _OFFENDER)
    assert run(["pkg"]) == 1


def test_stale_baseline_entries_are_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/mod.py", _OFFENDER)
    assert run(["pkg", "--write-baseline"]) == 0
    _write(tmp_path, "pkg/mod.py", _CLEAN)  # debt paid down
    capsys.readouterr()
    assert run(["pkg"]) == 0
    assert "stale" in capsys.readouterr().out


def test_no_baseline_flag_ignores_baseline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/mod.py", _OFFENDER)
    assert run(["pkg", "--write-baseline"]) == 0
    assert run(["pkg", "--no-baseline"]) == 1


def test_corrupt_baseline_exits_two(tmp_path, capsys):
    _write(tmp_path, "mod.py", _CLEAN)
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 42}')
    assert run([str(tmp_path), "--baseline", str(bad)]) == 2
    assert "bad baseline" in capsys.readouterr().err


def test_select_and_ignore(tmp_path, capsys):
    _write(tmp_path, "core/mod.py", """\
        import numpy as np

        def f(x):
            np.random.rand(1)
            return x == 1.5
    """)
    assert run([str(tmp_path), "--select", "RS102"]) == 1
    assert run([str(tmp_path), "--ignore", "RS201,RS102"]) == 0
    # An unknown --ignore id (a typo, or a retired rule) is a usage error,
    # exactly like an unknown --select id.
    capsys.readouterr()
    assert run([str(tmp_path), "--ignore", "RS201,RS102,RS105"]) == 2
    assert "RS105" in capsys.readouterr().err


def test_parse_error_fails_even_with_write_baseline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/broken.py", "def f(:\n")
    assert run(["pkg", "--write-baseline"]) == 1
    assert run(["pkg"]) == 1


def test_list_rules(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == ["RS102", "RS106", "RS201", "RS202", "RS203", "RS204"]


_LOCKED_SLEEP = """\
    import threading
    import time

    _L = threading.Lock()

    def slow():
        with _L:
            time.sleep(1.0)
"""


def test_graph_artifact_schema(tmp_path, capsys):
    _write(tmp_path, "service/mod.py", _LOCKED_SLEEP)
    graph_path = tmp_path / "graph.json"
    code = run([str(tmp_path), "--graph", str(graph_path)])
    assert code == 1  # the RS202 finding still gates
    doc = json.loads(graph_path.read_text())
    assert doc["version"] == 1
    assert set(doc) >= {"version", "stats", "functions", "edges", "findings"}
    assert set(doc["findings"]) == {"new", "baselined"}
    assert any(f["rule"] == "RS202" for f in doc["findings"]["new"])
    assert doc["stats"]["functions"] >= 1
    assert 0.0 <= doc["stats"]["resolution_rate"] <= 1.0
    assert "call graph written to" in capsys.readouterr().out


def test_graph_flag_without_argument_uses_default_name(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/mod.py", _CLEAN)
    assert run(["pkg", "--graph"]) == 0
    from repro.analysis.cli import DEFAULT_GRAPH_NAME

    assert (tmp_path / DEFAULT_GRAPH_NAME).exists()


def test_stats_prints_resolution_line(tmp_path, capsys):
    _write(tmp_path, "pkg/mod.py", _CLEAN)
    assert run([str(tmp_path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "intra-project resolution" in out


def test_graph_rule_findings_ride_the_baseline_ratchet(
    tmp_path, capsys, monkeypatch
):
    """RS2xx debt participates in the same ratchet as per-file rules:
    baselined once, gating again the moment fresh debt appears."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "service/mod.py", _LOCKED_SLEEP)
    assert run(["service", "--select", "RS202", "--write-baseline"]) == 0
    assert run(["service", "--select", "RS202"]) == 0
    assert "1 baselined" in capsys.readouterr().out
    _write(tmp_path, "service/fresh.py", _LOCKED_SLEEP)
    assert run(["service", "--select", "RS202"]) == 1
