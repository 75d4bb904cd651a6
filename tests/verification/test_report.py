"""Conformance report: accumulation, JSON round trip, metrics wiring."""

import json

from repro.verification.comparisons import agree_close
from repro.verification.report import CheckRecord, ConformanceReport


def _record(passed: bool = True, oracle: str = "test_oracle") -> CheckRecord:
    agreement = agree_close(1.0, 1.0 if passed else 2.0)
    return CheckRecord.from_agreement(
        oracle=oracle,
        kind="pair",
        distribution="exponential",
        cost_model="reservation_only",
        left_name="series",
        right_name="direct",
        agreement=agreement,
        duration_s=0.01,
    )


class TestConformanceReport:
    def test_empty_report_does_not_pass(self):
        # "No checks ran" must not read as conformance.
        assert not ConformanceReport().passed

    def test_counts(self):
        report = ConformanceReport()
        report.add(_record(True))
        report.add(_record(False))
        report.add(_record(True))
        assert report.n_checks == 3
        assert report.n_passed == 2
        assert report.n_failed == 1
        assert not report.passed
        assert len(report.failures()) == 1

    def test_all_passing_report_passes(self):
        report = ConformanceReport()
        report.extend([_record(True), _record(True)])
        assert report.passed

    def test_json_round_trip(self):
        report = ConformanceReport(metadata={"seed": 7, "quick": True})
        report.extend([_record(True), _record(False, oracle="other")])
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 1
        assert doc["metadata"]["seed"] == 7
        assert doc["summary"]["n_failed"] == 1
        restored = ConformanceReport.from_dict(doc)
        assert restored.n_checks == 2
        assert restored.records[0].oracle == "test_oracle"
        assert restored.records[1].passed is False
        assert restored.metadata == {"seed": 7, "quick": True}

    def test_by_oracle_grouping(self):
        report = ConformanceReport()
        report.extend([_record(True), _record(True, oracle="b"), _record(False)])
        groups = report.by_oracle()
        assert set(groups) == {"test_oracle", "b"}
        assert len(groups["test_oracle"]) == 2

    def test_summary_rows_flag_failures(self):
        report = ConformanceReport()
        report.extend([_record(True, oracle="good"), _record(False, oracle="bad")])
        rows = {row[0]: row for row in report.summary_rows()}
        assert rows["good"][3] == "ok"
        assert rows["bad"][3] == "FAIL"

    def test_record_label(self):
        r = _record(True)
        assert r.label() == "test_oracle[exponential/reservation_only]"

    def test_metrics_wiring(self, enabled_obs):
        registry, _ = enabled_obs
        report = ConformanceReport()
        report.extend([_record(True), _record(False)])
        assert registry.counter("verification.checks").value == 2
        assert registry.counter("verification.failures").value == 1

    def test_from_dict_does_not_recount_metrics(self, enabled_obs):
        registry, _ = enabled_obs
        report = ConformanceReport()
        report.add(_record(False))
        before = registry.counter("verification.checks").value
        ConformanceReport.from_dict(report.to_dict())
        assert registry.counter("verification.checks").value == before
