"""RS204 — plan-key hashing must be transitively pure.

The plan cache (PR 3) is only correct if
:mod:`repro.service.keys` is a pure function of the request: two
identical requests must hash to the same key on any host, at any time,
in any process.  A ``time.time()`` three calls deep, an
``os.environ`` read, an RNG draw, or a mutation of module state inside
the hashing closure all silently turn the content-addressed cache into a
time/host-dependent one — hits become misses (wasted recompute) or,
worse, misses become hits (stale plans served as fresh).

This rule takes every function defined in a ``service/keys.py`` module
as a purity root, closes over the call graph (direct + callback edges;
name-based CHA edges are followed so ``distribution.params()`` reaches
every registered distribution's ``params`` — but not through
container-style method names like ``.get``/``.items``, which would drag
in unrelated classes), and flags any reachable call into a
nondeterminism source, plus any ``global`` mutation.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator, Optional

from repro.analysis.finding import Finding
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.symbols import FunctionSummary
from repro.analysis.rules import register
from repro.analysis.rules.base import GraphRule

__all__ = ["PlanKeyPurityRule"]

#: Canonical prefixes whose calls make a hash nondeterministic.
_IMPURE_PREFIXES = (
    "time.",
    "random.",
    "numpy.random.",
    "uuid.",
    "secrets.",
    "os.environ",
)

_IMPURE_EXACT = frozenset(
    {
        "os.getenv",
        "os.urandom",
        "open",
        "input",
    }
)

#: datetime constructors that read the wall clock.
_CLOCK_TAILS = frozenset({"now", "today", "utcnow"})


def _is_keys_module(path: str) -> bool:
    return PurePosixPath(path).parts[-2:] == ("service", "keys.py")


def _impure_label(canonical: str) -> Optional[str]:
    if canonical in _IMPURE_EXACT:
        return canonical
    for prefix in _IMPURE_PREFIXES:
        if canonical == prefix.rstrip(".") or canonical.startswith(prefix):
            return canonical
    head, _, tail = canonical.rpartition(".")
    if tail in _CLOCK_TAILS and "datetime" in head:
        return canonical
    return None


@register
class PlanKeyPurityRule(GraphRule):
    rule_id = "RS204"
    summary = (
        "impure call (clock/env/RNG/IO) or global mutation reachable from "
        "plan-key hashing"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        roots = [
            fn.qname for fn in graph.functions.values() if _is_keys_module(fn.path)
        ]
        via = graph.root_of(roots, skip_common_cha=True)
        for qname, root in sorted(via.items()):
            fn = graph.functions.get(qname)
            if fn is None:
                continue
            yield from self._check_function(graph, fn, root)

    def _check_function(
        self, graph: CallGraph, fn: FunctionSummary, root: str
    ) -> Iterator[Finding]:
        suffix = (
            ""
            if fn.qname == root
            else f" (reached from plan-key root `{root}`)"
        )
        if fn.has_global_write is not None:
            yield self.graph_finding(
                fn.path,
                fn.has_global_write,
                1,
                f"`global` mutation inside `{fn.qname}`{suffix}; plan-key "
                "hashing must not depend on or modify module state",
            )
        for site in fn.calls:
            if site.dotted is None:
                continue
            canonical = graph.canonical(fn.module, site.dotted)
            label = _impure_label(canonical)
            if label is not None:
                yield self.graph_finding(
                    fn.path,
                    site.lineno,
                    site.col,
                    f"impure call `{label}` in `{fn.qname}`{suffix}; plan "
                    "keys must be deterministic functions of the request",
                )
