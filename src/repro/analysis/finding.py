"""Finding and source-file primitives shared by the ``repro.analysis`` engine.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: the engine produces them and the reporters render them —
neither mutates them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Optional, Tuple

__all__ = ["Finding", "SourceFile", "PARSE_ERROR_RULE"]

#: Pseudo-rule id attached to files the engine cannot parse.  Parse errors
#: can never be suppressed — broken syntax blocks everything.
PARSE_ERROR_RULE = "E001"


@dataclass(frozen=True)
class Finding:
    """One rule violation (or parse error) at one source location."""

    rule: str
    path: str  # posix-style, relative to the analysis root
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One parsed module: path, dotted module name, text, AST, and per-line
    suppressions.

    ``parts`` are the posix path segments relative to the analysis root —
    rules use them for scoping (e.g. RS102 only looks at files under a
    ``core/``, ``strategies/`` or ``distributions/`` directory), which keeps
    the rules testable against fixture trees laid out the same way.
    ``module`` is the dotted name the engine gives the file
    (:func:`repro.analysis.engine.load_sources`); relative imports resolve
    against it.
    """

    path: str
    text: str
    tree: Optional[ast.AST]
    #: line -> set of rule ids disabled on that line ("all" disables every rule)
    suppressions: Dict[int, set] = field(default_factory=dict)
    parse_error: Optional[str] = None
    module: str = ""

    @property
    def parts(self) -> Tuple[str, ...]:
        return PurePosixPath(self.path).parts

    @property
    def is_package(self) -> bool:
        """An ``__init__.py``: its module *is* the package relative imports
        resolve against, not a member of it."""
        return PurePosixPath(self.path).name == "__init__.py"

    def is_suppressed(self, rule: str, line: int) -> bool:
        disabled = self.suppressions.get(line)
        return bool(disabled) and (rule in disabled or "all" in disabled)
