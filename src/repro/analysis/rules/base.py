"""Rule base classes and shared AST helpers.

Three rule kinds:

* :class:`Rule` — runs once per file against its AST (most rules);
* :class:`ProjectRule` — runs once against *all* parsed files, for
  cross-module checks (RS106 metric names against the canonical names
  module);
* :class:`GraphRule` — runs once against the project call graph the
  engine builds (the RS2xx pack).

All yield :class:`~repro.analysis.finding.Finding` objects; the engine
owns suppression handling, so rules stay pure functions of the AST.
Rules that need a name's canonical form read the module's imports with
:func:`repro.analysis.graph.symbols.collect_imports` and map names through
:func:`~repro.analysis.graph.symbols.resolve`, the resolver the call
graph uses.
"""

from __future__ import annotations

import abc
import ast
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.analysis.finding import Finding, SourceFile

__all__ = [
    "Rule",
    "ProjectRule",
    "GraphRule",
    "dotted_name",
]


class Rule(abc.ABC):
    """A per-file check.  Subclasses set ``rule_id``/``summary`` and
    implement :meth:`check`; ``applies_to`` scopes the rule to parts of the
    tree (path segments relative to the analysis root)."""

    rule_id: str = "RS000"
    summary: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        return True

    @abc.abstractmethod
    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProjectRule(Rule):
    """A whole-project check; :meth:`check_project` sees every parsed file."""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())  # pragma: no cover - project rules use check_project

    @abc.abstractmethod
    def check_project(
        self, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        """Yield findings across the full file set."""


class GraphRule(Rule):
    """A rule over the project call graph (the RS2xx pack).

    The engine builds one :class:`~repro.analysis.graph.CallGraph` per run
    and hands it to every graph rule's :meth:`check_graph`.
    """

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())  # pragma: no cover - graph rules use check_graph

    @abc.abstractmethod
    def check_graph(self, graph) -> Iterator[Finding]:
        """Yield findings from the resolved call graph."""

    def graph_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id, path=path, line=line, col=col, message=message
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``Name``/``Attribute`` chains to ``"a.b.c"`` (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def contains_parts(parts: Iterable[str], wanted: Iterable[str]) -> bool:
    """True when any path segment is in ``wanted`` (rule scoping helper)."""
    wanted_set = set(wanted)
    return any(part in wanted_set for part in parts)
