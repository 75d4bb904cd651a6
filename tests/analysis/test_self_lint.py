"""The repository must pass its own linter: zero findings, suppressions inline.

This is the gate CI runs; keeping it in the suite means `pytest` alone
catches a finding before the lint job does.
"""

import json
from pathlib import Path

from repro.analysis.cli import run

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_src_is_lint_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert run(["src"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_repo_json_report_shape(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(REPO_ROOT)
    report_path = tmp_path / "report.json"
    assert run(["src", "--format", "json", "-o", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["summary"]["findings"] == 0
    assert doc["summary"]["files"] > 100
    # The intentional exact-comparison disables are visible, not hidden.
    assert doc["summary"]["suppressed"] >= 10


def test_repo_graph_resolution_and_no_deadlock_debt(
    monkeypatch, tmp_path, capsys
):
    """Acceptance criteria for the dataflow pack, measured on the repo:

    * >= 90% of intra-project call sites resolve (the RS2xx rules are only
      as good as the graph under them);
    * zero RS202 lock-order cycles anywhere: an acquisition-order cycle
      is a deadlock waiting for a scheduler.
    """
    monkeypatch.chdir(REPO_ROOT)
    graph_path = tmp_path / "graph.json"
    assert run(["src", "--graph", str(graph_path)]) == 0
    doc = json.loads(graph_path.read_text())
    assert doc["stats"]["resolution_rate"] >= 0.90
    cycles = [
        f
        for f in doc["findings"]
        if f["rule"] == "RS202" and "cycle" in f["message"]
    ]
    assert cycles == []
