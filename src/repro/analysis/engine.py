"""The ``repro-lint`` engine: file collection, parsing, rule dispatch.

The engine owns everything the rules should not care about — walking
directories, parsing source, naming each module, honoring inline
suppressions — so rules stay pure AST-to-findings functions.

Module naming
    A file's dotted module name is derived from the longest chain of
    parent directories that each contain an ``__init__.py`` *within the
    scanned set* (``src/repro/service/planner.py`` → ``repro.service
    .planner`` when ``src/`` itself has no ``__init__.py``).  Bare fixture
    trees without ``__init__.py`` fall back to the path below the scanned
    root (``/tmp/abc`` scanned → ``/tmp/abc/service/mod.py`` is
    ``service.mod``), wherever that root sits.
    The name is computed once, here, and carried on
    :attr:`SourceFile.module`; the import resolver and the call graph both
    read it.

Dependency-free by design (``ast`` + ``tokenize`` only): the linter has to
run in CI images and pre-commit hooks that install nothing beyond the
package itself.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.finding import PARSE_ERROR_RULE, Finding, SourceFile
from repro.analysis.graph import CallGraph, build_graph
from repro.analysis.rules import ProjectRule, Rule, all_rules
from repro.analysis.rules.base import GraphRule
from repro.analysis.suppress import parse_suppressions

__all__ = [
    "AnalysisResult",
    "analyze_paths",
    "collect_files",
    "load_source",
    "load_sources",
    "module_name_for",
]

_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    "node_modules",
    ".venv",
    "venv",
}


@dataclass
class AnalysisResult:
    """Everything one run produced: sources, findings, suppressed findings."""

    sources: List[SourceFile] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Built when any graph rule ran (or the caller asked for it).
    graph: Optional[CallGraph] = None

    @property
    def n_files(self) -> int:
        return len(self.sources)

    @property
    def parse_errors(self) -> List[Finding]:
        return [f for f in self.findings if f.rule == PARSE_ERROR_RULE]


def _display_path(path: Path) -> str:
    """cwd-relative posix path when the file is under cwd, else absolute."""
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return PurePosixPath(rel).as_posix()
    except ValueError:
        return PurePosixPath(path.resolve()).as_posix()


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    seen.setdefault((Path(dirpath) / name).resolve(), None)
    return sorted(seen)


def load_source(path: Path) -> SourceFile:
    """Read + parse one file; a syntax error becomes a parse-error source.

    The module name is left empty: :func:`load_sources` names a whole file
    set, which is what relative imports and the call graph need.
    """
    display = _display_path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return SourceFile(
            path=display, text="", tree=None, parse_error=str(exc)
        )
    try:
        tree = ast.parse(text, filename=str(path))
    except (SyntaxError, ValueError) as exc:
        return SourceFile(
            path=display, text=text, tree=None, parse_error=str(exc)
        )
    return SourceFile(
        path=display,
        text=text,
        tree=tree,
        suppressions=parse_suppressions(text),
    )


def module_name_for(
    path: str, packages: Set[Tuple[str, ...]], root: Tuple[str, ...] = ()
) -> str:
    """Dotted module name for ``path`` given the scanned package dirs.

    ``root`` holds the path parts of the scanned directory ``path`` was
    found under; only a bare tree (no packages at all) is named from it.
    """
    parts = PurePosixPath(path).parts
    dirs, name = parts[:-1], parts[-1]
    stem = name[:-3] if name.endswith(".py") else name
    # Longest chain of trailing dirs that are all packages.
    start = len(dirs)
    for i in range(len(dirs)):
        if all(dirs[:j] in packages for j in range(i + 1, len(dirs) + 1)):
            start = i
            break
    pkg_parts = dirs[start:]
    if not pkg_parts and not packages:
        # Bare tree (e.g. test fixtures): fall back to the path below the
        # scanned root so relative imports still have a package to resolve
        # against, and no absolute path leaks into the name.
        pkg_parts = dirs[len(root):] if dirs[: len(root)] == root else dirs
    if stem == "__init__":
        return ".".join(pkg_parts) if pkg_parts else stem
    return ".".join((*pkg_parts, stem))


def load_sources(paths: Sequence[str]) -> List[SourceFile]:
    """Load every ``.py`` file under ``paths``, each named by its module."""
    sources = [load_source(path) for path in collect_files(paths)]
    packages = {
        PurePosixPath(s.path).parts[:-1]
        for s in sources
        if PurePosixPath(s.path).name == "__init__.py"
    }
    roots = []
    for raw in paths:
        root = PurePosixPath(_display_path(Path(raw)))
        roots.append(root.parent.parts if Path(raw).is_file() else root.parts)
    for source in sources:
        dirs = PurePosixPath(source.path).parts[:-1]
        # The deepest scanned root that holds the file names it.
        root = max(
            (r for r in roots if dirs[: len(r)] == r), key=len, default=()
        )
        source.module = module_name_for(source.path, packages, root)
    return sources


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
    with_graph: bool = False,
) -> AnalysisResult:
    """Lint ``paths`` with ``rules`` (default: every registered rule).

    Inline suppressions are applied here: suppressed findings land in
    ``result.suppressed``.  Parse errors are reported as rule ``E001`` and
    cannot be suppressed.

    The call graph is built at most once per run — shared by every
    :class:`GraphRule` and kept on ``result.graph``.  ``with_graph=True``
    forces construction even when no graph rule is selected (the CLI's
    ``--graph``/``--stats`` artifacts need it).
    """
    rule_list = list(rules) if rules is not None else all_rules()
    result = AnalysisResult(sources=load_sources(paths))

    for source in result.sources:
        if source.parse_error is not None:
            result.findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=source.path,
                    line=1,
                    col=1,
                    message=f"cannot parse file: {source.parse_error}",
                )
            )

    parsed = [s for s in result.sources if s.tree is not None]
    if with_graph or any(isinstance(r, GraphRule) for r in rule_list):
        result.graph = build_graph(parsed)

    raw: List[Finding] = []
    for rule in rule_list:
        if isinstance(rule, GraphRule):
            assert result.graph is not None
            raw.extend(rule.check_graph(result.graph))
        elif isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(parsed))
        else:
            for source in parsed:
                if rule.applies_to(source):
                    raw.extend(rule.check(source))

    by_path = {s.path: s for s in result.sources}
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.rule, finding.line):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)

    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result
