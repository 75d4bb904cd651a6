"""Rule base classes and shared AST helpers.

Two rule kinds:

* :class:`Rule` — runs once per file against its AST (most rules);
* :class:`ProjectRule` — runs once against *all* parsed files, for
  cross-module checks (RS103 protocol conformance against the distribution
  registry, RS106 metric names against the canonical names module).

Both yield :class:`~repro.analysis.finding.Finding` objects; the engine
owns suppression and baseline handling, so rules stay pure functions of
the AST.
"""

from __future__ import annotations

import abc
import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.finding import Finding, SourceFile

__all__ = [
    "Rule",
    "ProjectRule",
    "GraphRule",
    "dotted_name",
    "ImportMap",
    "walk_classes",
    "method_defs",
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


class GraphRule(ProjectRule):
    """A rule over the project call graph (the RS2xx pack).

    The engine builds one :class:`~repro.analysis.graph.CallGraph` per run
    and hands it to every graph rule; :meth:`check_project` is kept as a
    fallback so a graph rule still works when invoked directly against a
    source list (it builds its own graph).
    """

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        from repro.analysis.graph import build_graph

        return self.check_graph(build_graph(list(sources)))

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


class ImportMap:
    """Local alias -> canonical dotted module/object name for one module.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng as rng`` maps ``rng -> numpy.random.default_rng``.  Rules
    resolve attribute chains through this map so aliasing cannot hide a
    flagged call.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    # `import a.b` binds local name `a` to package `a`.
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, through import aliases."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical_head = self.aliases.get(head, head)
        return f"{canonical_head}.{rest}" if rest else canonical_head


def walk_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def method_defs(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Directly defined (non-nested) methods of a class, by name."""
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def positional_arity(fn: ast.FunctionDef) -> Tuple[int, int]:
    """(required, total) positional parameter counts, excluding ``self``."""
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    total = len(positional)
    required = total - len(args.defaults)
    return max(0, required), total


def contains_parts(parts: Iterable[str], wanted: Iterable[str]) -> bool:
    """True when any path segment is in ``wanted`` (rule scoping helper)."""
    wanted_set = set(wanted)
    return any(part in wanted_set for part in parts)
