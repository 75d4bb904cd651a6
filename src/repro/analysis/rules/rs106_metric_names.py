"""RS106 — metric-name drift.

``docs/SERVICE.md`` documents the ``/metrics`` payload, dashboards key on
the counter names, and the CI round-trip asserts on them — so a typo'd
metric name (``plancache.hit`` for ``plancache.hits``) is not a style
problem, it is a silently-empty time series.

The canonical inventory lives in ``repro/observability/names.py`` as
module-level string constants plus ``DYNAMIC_PREFIXES`` (name families
built at runtime, e.g. ``server.responses.<status>``).  This rule finds
every name handed to the metric APIs (``inc`` / ``set_gauge`` /
``observe`` / ``timer`` / ``counter`` / ``gauge`` / ``histogram`` /
``observe_timer`` on a ``metrics`` receiver) across the scanned tree and
checks it against that inventory:

* string literals must be canonical (or extend a dynamic prefix);
* f-strings must extend a declared dynamic prefix;
* ``names.FOO`` references must exist in the names module;
* anything else (a runtime-built name) is flagged — route it through a
  constant or register a prefix.

If the names module is not part of the scanned set the rule stays silent:
there is nothing to check against.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.finding import Finding, SourceFile
from repro.analysis.graph.symbols import collect_imports, resolve
from repro.analysis.rules import register
from repro.analysis.rules.base import ProjectRule, dotted_name

__all__ = ["MetricNameRule"]

_NAMES_SUFFIX = ("observability", "names.py")
_NAMES_MODULE = "repro.observability.names"
_METRIC_APIS = {
    "inc",
    "set_gauge",
    "observe",
    "timer",
    "counter",
    "gauge",
    "histogram",
    "observe_timer",
}


def _load_inventory(source: SourceFile) -> Tuple[Set[str], List[str]]:
    """(canonical names, dynamic prefixes) from a parsed names module."""
    names: Set[str] = set()
    prefixes: List[str] = []
    for node in source.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not targets:
            continue
        value = node.value
        if "DYNAMIC_PREFIXES" in targets and isinstance(
            value, (ast.Tuple, ast.List)
        ):
            prefixes = [
                el.value
                for el in value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            names.add(value.value)
    return names, prefixes


def _constant_names(source: SourceFile) -> Set[str]:
    """Constant identifiers (``FOO``) defined at names-module top level."""
    out: Set[str] = set()
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def _is_metrics_receiver(func: ast.AST, imports: Dict[str, str]) -> bool:
    if not isinstance(func, ast.Attribute) or func.attr not in _METRIC_APIS:
        return False
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    return receiver == "metrics" or resolve(imports, receiver).endswith(
        "observability.metrics"
    )


@register
class MetricNameRule(ProjectRule):
    rule_id = "RS106"
    summary = "metric name not in the canonical repro/observability/names.py"

    def check_project(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        names_modules = [
            s
            for s in sources
            if s.tree is not None and s.parts[-2:] == _NAMES_SUFFIX
        ]
        if not names_modules:
            return
        canonical: Set[str] = set()
        prefixes: List[str] = []
        constants: Set[str] = set()
        for module in names_modules:
            mod_names, mod_prefixes = _load_inventory(module)
            canonical |= mod_names
            prefixes += mod_prefixes
            constants |= _constant_names(module)
        for source in sources:
            if source.tree is None or source.parts[-2:] == _NAMES_SUFFIX:
                continue
            yield from self._check_file(source, canonical, prefixes, constants)

    def _check_file(
        self,
        source: SourceFile,
        canonical: Set[str],
        prefixes: List[str],
        constants: Set[str],
    ) -> Iterator[Finding]:
        imports = collect_imports(source.tree, source.module, source.is_package)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not _is_metrics_receiver(node.func, imports):
                continue
            for name_node in self._name_candidates(node.args[0]):
                message = self._judge(
                    name_node, imports, canonical, prefixes, constants
                )
                if message:
                    yield self.finding(source, node, message)
                    break  # one finding per call site

    @staticmethod
    def _name_candidates(arg: ast.AST) -> List[ast.AST]:
        """Unfold conditional expressions into their possible name values."""
        if isinstance(arg, ast.IfExp):
            return [arg.body, arg.orelse]
        return [arg]

    def _judge(
        self,
        arg: ast.AST,
        imports: Dict[str, str],
        canonical: Set[str],
        prefixes: List[str],
        constants: Set[str],
    ) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            if name in canonical or any(name.startswith(p) for p in prefixes):
                return None
            return (
                f"metric name '{name}' is not declared in "
                "repro/observability/names.py — add it there (or extend a "
                "DYNAMIC_PREFIXES family)"
            )
        if isinstance(arg, ast.JoinedStr):
            # f"{names.SOME_PREFIX}{suffix}" — built from a declared
            # constant, canonical by construction.
            first = arg.values[0] if arg.values else None
            if isinstance(first, ast.FormattedValue):
                head = self._judge(
                    first.value, imports, canonical, prefixes, constants
                )
                if head is None:
                    return None
            static = ""
            for part in arg.values:
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    static += part.value
                else:
                    break
            if static and any(
                static.startswith(p) or p.startswith(static) for p in prefixes
            ):
                return None
            return (
                f"dynamically built metric name (f-string starting "
                f"'{static}') matches no DYNAMIC_PREFIXES entry in "
                "repro/observability/names.py"
            )
        dotted = dotted_name(arg)
        if dotted is not None:
            resolved = resolve(imports, dotted)
            if resolved.startswith(_NAMES_MODULE + "."):
                constant = resolved[len(_NAMES_MODULE) + 1:]
                if constant in constants:
                    return None
                return (
                    f"metric-name constant '{constant}' does not exist in "
                    "repro/observability/names.py"
                )
            head = resolved.split(".", 1)[0]
            if head in constants:
                # `from repro.observability.names import FOO` resolves to
                # the names module only via the alias map; a bare constant
                # name that the names module defines is accepted.
                return None
        return (
            "metric name is neither a canonical literal nor a "
            "names.py constant; route it through "
            "repro/observability/names.py"
        )
