"""Engine-level behaviour: collection, suppression plumbing, parse errors."""

import textwrap

import pytest

from repro.analysis.engine import analyze_paths, collect_files
from repro.analysis.finding import PARSE_ERROR_RULE
from repro.analysis.rules import all_rules
from repro.analysis.suppress import parse_suppressions


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_collect_files_walks_sorted_and_skips_caches(tmp_path):
    _write(tmp_path, "b.py", "")
    _write(tmp_path, "a.py", "")
    _write(tmp_path, "pkg/c.py", "")
    _write(tmp_path, "__pycache__/junk.py", "")
    _write(tmp_path, "notes.txt", "")
    files = collect_files([str(tmp_path)])
    assert [f.name for f in files] == ["a.py", "b.py", "c.py"]


def test_collect_files_dedups_file_and_parent_dir(tmp_path):
    path = _write(tmp_path, "a.py", "")
    files = collect_files([str(tmp_path), str(path)])
    assert files == [path.resolve()]


def test_collect_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        collect_files([str(tmp_path / "nope")])


def test_parse_error_becomes_e001(tmp_path):
    _write(tmp_path, "broken.py", "def f(:\n")
    result = analyze_paths([str(tmp_path)])
    assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
    assert result.parse_errors == result.findings


def test_parse_error_is_not_suppressible(tmp_path):
    _write(tmp_path, "broken.py", "def f(:  # repro-lint: disable=all\n")
    result = analyze_paths([str(tmp_path)])
    assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
    assert result.suppressed == []


def test_disable_all_suppresses_any_rule(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        import numpy as np
        x = np.random.rand(3)  # repro-lint: disable=all -- fixture
        """,
    )
    result = analyze_paths([str(tmp_path)], rules=all_rules(["RS201"]))
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RS201"]


def test_suppressions_only_match_comments_not_strings():
    text = 's = "# repro-lint: disable=RS201"\n'
    assert parse_suppressions(text) == {}


def test_findings_are_sorted_by_path_then_line(tmp_path):
    _write(
        tmp_path,
        "b.py",
        """\
        import random
        random.random()
        """,
    )
    _write(
        tmp_path,
        "a.py",
        """\
        import numpy as np
        np.random.rand(1)
        np.random.rand(2)
        """,
    )
    result = analyze_paths([str(tmp_path)], rules=all_rules(["RS201"]))
    keys = [(f.path, f.line) for f in result.findings]
    assert keys == sorted(keys)


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        all_rules(["RS999"])
