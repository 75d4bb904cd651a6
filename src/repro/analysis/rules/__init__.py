"""Rule registry for ``repro-lint``.

Rules self-register via the :func:`register` decorator; :func:`all_rules`
imports the built-in rule modules on first use and returns fresh instances,
so two engine runs never share rule state.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Type

from repro.analysis.rules.base import ProjectRule, Rule

__all__ = ["register", "all_rules", "rule_classes", "ProjectRule", "Rule"]

_REGISTRY: Dict[str, Type[Rule]] = {}

_BUILTIN_MODULES = (
    "repro.analysis.rules.rs102_float_eq",
    "repro.analysis.rules.rs103_protocol",
    "repro.analysis.rules.rs105_except",
    "repro.analysis.rules.rs106_metric_names",
    "repro.analysis.rules.rs201_seed_taint",
    "repro.analysis.rules.rs202_lock_order",
    "repro.analysis.rules.rs203_exception_flow",
    "repro.analysis.rules.rs204_plan_key_purity",
)


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = cls.rule_id
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {rule_id!r}: {existing} vs {cls}")
    _REGISTRY[rule_id] = cls
    return cls


def _load_builtins() -> None:
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def rule_classes() -> Dict[str, Type[Rule]]:
    """All registered rule classes by id (loads the built-ins)."""
    _load_builtins()
    return dict(sorted(_REGISTRY.items()))


def all_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Fresh instances of the selected rules (default: every rule).

    Unknown ids in ``select`` raise ``KeyError`` — a typo in ``--select``
    should fail loudly, not silently lint with fewer rules.
    """
    classes = rule_classes()
    if select is None:
        return [cls() for cls in classes.values()]
    unknown = [rid for rid in select if rid not in classes]
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {unknown}; known: {sorted(classes)}"
        )
    return [classes[rid]() for rid in select]
