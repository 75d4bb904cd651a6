"""Reporters: human-readable text and machine-readable JSON.

Both render the same :class:`Report` bundle, so the CI artifact (JSON) and
the terminal output can never disagree about what was found.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.analysis.finding import Finding

__all__ = ["Report", "render_text", "render_json"]


@dataclass
class Report:
    """One lint run, after inline suppressions."""

    n_files: int
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def render_text(report: Report) -> str:
    lines: List[str] = [
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"{finding.rule} {finding.message}"
        for finding in report.findings
    ]
    lines.append("")
    verdict = "FAIL" if report.findings else "ok"
    lines.append(
        f"repro-lint: {report.n_files} file(s), {len(report.findings)} "
        f"finding(s), {len(report.suppressed)} suppressed — {verdict}"
    )
    return "\n".join(lines).lstrip("\n")


def render_json(report: Report) -> str:
    doc = {
        "version": 2,
        "summary": {
            "files": report.n_files,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "by_rule": dict(
                sorted(Counter(f.rule for f in report.findings).items())
            ),
            "exit_code": report.exit_code,
        },
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
    }
    return json.dumps(doc, indent=2) + "\n"
