"""Inline suppression comments: ``# repro-lint: disable=RS201,RS102``.

A suppression applies to findings *on the same physical line* as the
comment.  ``disable=all`` silences every rule on that line.  Comments are
located with :mod:`tokenize` rather than a regex over raw lines, so the
marker inside a string literal (say, in this module's own tests) never
counts as a suppression.

The project convention — enforced socially, not mechanically — is that an
inline disable always carries a reason after the rule list::

    if alpha == 1.0:  # repro-lint: disable=RS102 -- exact alpha=1 closed form
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

__all__ = ["parse_suppressions", "SUPPRESSION_PATTERN"]

SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)"
)


def _rule_ids(spec: str) -> Set[str]:
    return {part.strip() for part in spec.split(",") if part.strip()}


def parse_suppressions(text: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids disabled on that line.

    Unparseable source yields no suppressions: the engine reports a parse
    error for the file anyway, and parse errors cannot be suppressed.
    """
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_PATTERN.search(tok.string)
            if match:
                line = tok.start[0]
                out.setdefault(line, set()).update(_rule_ids(match.group(1)))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}
    return out
