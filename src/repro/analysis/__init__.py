"""``repro.analysis`` — domain-aware static analysis (``repro-lint``).

The paper's results rest on disciplined randomness, visible faults, and
race-free serving code; this package enforces those properties
mechanically, at lint time, with zero dependencies beyond the stdlib
``ast``/``tokenize``:

=======  ==========================================================
RS102    float ``==`` / ``!=`` in the numeric packages
RS106    metric names not in ``repro/observability/names.py``
RS201    unseeded / global RNG (``np.random.*``, ``random.*``,
         argless ``default_rng()``) and dropped seeds, anywhere
RS202    lock discipline in ``service/``, ``observability/`` and
         ``resilience/``: unlocked mutation, bare ``acquire()``,
         lock-order cycles, blocking calls under a lock
RS203    fault-injection sites no terminal handler dominates, and
         bare / over-broad ``except`` that drops the error, anywhere
RS204    impure calls reachable from plan-key hashing
=======  ==========================================================

Distribution protocol conformance is a runtime contract test over the
registry (``tests/distributions/test_contract.py``), not a lint rule.

See ``docs/ANALYSIS.md`` for the full rule catalogue, the suppression
syntax (``# repro-lint: disable=RS102 -- reason``), and the baseline
ratchet workflow.
"""

from repro.analysis.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.analysis.engine import AnalysisResult, analyze_paths, collect_files
from repro.analysis.finding import Finding, SourceFile
from repro.analysis.reporters import Report, render_json, render_text
from repro.analysis.rules import all_rules, rule_classes

__all__ = [
    "AnalysisResult",
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "Report",
    "SourceFile",
    "all_rules",
    "analyze_paths",
    "collect_files",
    "render_json",
    "render_text",
    "rule_classes",
]
