"""Baseline ratchet: load/save round-trip, partition, stale detection."""

import json

import pytest

from repro.analysis.baseline import BASELINE_VERSION, Baseline
from repro.analysis.finding import PARSE_ERROR_RULE, Finding


def _fp(rule="RS201", path="src/mod.py", line=3, text="x = rand()"):
    finding = Finding(rule=rule, path=path, line=line, col=1, message="m")
    return finding, finding.fingerprint(text)


def test_missing_file_is_empty_baseline(tmp_path):
    baseline = Baseline.load(str(tmp_path / "absent.json"))
    assert len(baseline) == 0


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


def test_save_load_round_trip(tmp_path):
    pairs = [_fp(line=3), _fp(rule="RS105", path="src/other.py", line=7)]
    path = tmp_path / "base.json"
    assert Baseline().save(str(path), pairs) == 2
    loaded = Baseline.load(str(path))
    new, baselined, stale = loaded.partition(pairs)
    assert new == []
    assert len(baselined) == 2
    assert stale == []


def test_unknown_finding_is_new():
    _, fp = _fp()
    baseline = Baseline(counts={fp: 1})
    other = _fp(rule="RS102", text="y == 0.5")
    new, baselined, stale = baseline.partition([other])
    assert new == [other[0]]
    assert baselined == []
    assert stale == [fp]


def test_duplicate_fingerprints_are_counted():
    # Two identical offending lines in one file share a fingerprint; a
    # baseline tolerating one of them must flag the second as new.
    a, fp = _fp(line=3)
    b = Finding(rule="RS201", path="src/mod.py", line=9, col=1, message="m")
    assert b.fingerprint("x = rand()") == fp
    baseline = Baseline(counts={fp: 1})
    new, baselined, _ = baseline.partition([(a, fp), (b, fp)])
    assert baselined == [a]
    assert new == [b]


def test_parse_errors_never_saved_or_matched(tmp_path):
    err = Finding(
        rule=PARSE_ERROR_RULE, path="src/bad.py", line=1, col=1, message="m"
    )
    pair = (err, err.fingerprint(""))
    path = tmp_path / "base.json"
    assert Baseline().save(str(path), [pair]) == 0
    baseline = Baseline(counts={pair[1]: 1})
    new, baselined, _ = baseline.partition([pair])
    assert new == [err]
    assert baselined == []


def test_saved_file_is_versioned(tmp_path):
    path = tmp_path / "base.json"
    Baseline().save(str(path), [_fp()])
    doc = json.loads(path.read_text())
    assert doc["version"] == BASELINE_VERSION
    entry = doc["entries"][0]
    assert set(entry) == {"fingerprint", "count", "rule", "path", "message"}
