"""RS102 — ``==`` / ``!=`` between float-typed expressions.

The numerical core compares costs, quantiles, and thresholds that come out
of quadrature and recurrences; exact equality on those is almost always a
latent bug (`math.isclose` or an explicit tolerance is wanted).  The rule
is scoped to the numeric packages — ``core/``, ``strategies/``,
``distributions/`` — where float comparisons dominate.

Pure AST analysis cannot type expressions, so the rule fires only when an
operand is *provably* float-like: a float literal, ``float(...)``,
``math.inf``/``math.nan``-style constants, or unary minus on one of those.
Exact comparisons that are genuinely intended (support endpoints,
parameter sentinels like the Pareto ``alpha == 1`` closed-form switch)
carry an inline ``# repro-lint: disable=RS102 -- reason``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.analysis.finding import Finding, SourceFile
from repro.analysis.graph.symbols import collect_imports, resolve
from repro.analysis.rules import register
from repro.analysis.rules.base import Rule, contains_parts, dotted_name

__all__ = ["FloatEqualityRule"]

_FLOAT_CONST_ATTRS = {
    "math.inf",
    "math.nan",
    "math.pi",
    "math.e",
    "math.tau",
    "numpy.inf",
    "numpy.nan",
    "numpy.pi",
    "numpy.e",
}


def _is_float_like(node: ast.AST, imports: Dict[str, str]) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_like(node.operand, imports)
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
        )
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        return dotted is not None and resolve(imports, dotted) in _FLOAT_CONST_ATTRS
    return False


@register
class FloatEqualityRule(Rule):
    rule_id = "RS102"
    summary = "float equality comparison (== / != on float-typed operands)"

    SCOPE = ("core", "strategies", "distributions")

    def applies_to(self, source: SourceFile) -> bool:
        return contains_parts(source.parts, self.SCOPE)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        imports = collect_imports(source.tree, source.module, source.is_package)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_float_like(left, imports) or _is_float_like(right, imports):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        source,
                        node,
                        f"`{symbol}` on a float-typed operand; use "
                        "math.isclose / an explicit tolerance, or disable "
                        "with a reason if the exact comparison is intended",
                    )
                    break  # one finding per comparison chain is enough
