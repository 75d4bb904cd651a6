"""CLI behaviour: exit codes, formats, rule selection, graph artifact."""

import json
import textwrap

import pytest

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
    assert "0 finding(s)" in capsys.readouterr().out


def test_new_finding_exits_one(tmp_path, capsys):
    _write(tmp_path, "mod.py", _OFFENDER)
    assert run([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RS201" in out and "1 finding(s)" in out


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
    assert doc["version"] == 2
    assert set(doc) == {"version", "summary", "findings", "suppressed"}
    assert doc["summary"]["findings"] == 1
    assert doc["summary"]["exit_code"] == 1
    assert doc["findings"][0]["rule"] == "RS201"
    # Terminal output stays a one-line verdict when writing to a file.
    assert "report written to" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--baseline", "b.json"], ["--no-baseline"], ["--write-baseline"]],
    ids=["baseline", "no-baseline", "write-baseline"],
)
def test_removed_baseline_options_exit_two(
    tmp_path, capsys, monkeypatch, flags
):
    """The fingerprint baseline is gone: a finding is fixed or carries an
    inline disable, and the old options are usage errors."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "pkg/mod.py", _OFFENDER)
    with pytest.raises(SystemExit) as exc:
        run(["pkg", *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


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


def test_parse_error_exits_one(tmp_path, capsys):
    _write(tmp_path, "pkg/broken.py", "def f(:\n")
    assert run([str(tmp_path)]) == 1
    assert "E001" in capsys.readouterr().out


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
    assert doc["version"] == 2
    assert set(doc) >= {"version", "stats", "functions", "edges", "findings"}
    assert isinstance(doc["findings"], list)
    assert any(f["rule"] == "RS202" for f in doc["findings"])
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


def test_graph_rule_finding_exits_one(tmp_path, capsys):
    """An RS2xx finding gates exactly like a per-file one."""
    _write(tmp_path, "service/mod.py", _LOCKED_SLEEP)
    assert run([str(tmp_path / "service"), "--select", "RS202"]) == 1
    assert "RS202" in capsys.readouterr().out
