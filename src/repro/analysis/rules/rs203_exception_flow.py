"""RS203 — every injected fault must reach a real handler, and no broad
handler may drop the error it catches.

PR 5's contract is that chaos runs degrade gracefully: an
:class:`~repro.resilience.faults.InjectedFault` raised at any of the
registered sites (``pool.worker``, ``mc.chunk``, ``server.request``,
``shard.journal.append``, ``shard.compact``, ``shard.rpc``) is retried,
absorbed by the degradation ladder, or surfaced as a structured error —
never a naked traceback out of ``main`` and never silently swallowed.

This rule walks the *reverse* call graph from each fault-injection site:

* a **terminal guard** — broad (``except Exception``/bare), not
  re-raising, and demonstrably using the error — stops propagation
  (``run_ladder``'s rung handler, the server's top-level request
  handler);
* a guard that catches but **re-raises** (``RetryPolicy`` exhausting its
  attempts, the journal compactor's ``BaseException``+``raise`` cleanup) is
  a waypoint, not a stop — ascent continues through its callers;
* a broad guard that catches and **ignores** the error is a swallow — worse
  than a crash, because chaos CI can no longer see the fault at all;
* reaching a function with **no callers** without ever meeting a
  terminal guard means the fault escapes uncaught — reported with the
  escape roots.

Swallows are reported for every handler in the tree — function bodies and
module-level code alike — once each.  The reverse walk only decides the
message: a swallow on a fault path names the fault site it hides; any
other asks for the handler to narrow, re-raise, or record the error.  An
intentionally broad guard keeps an inline
``# repro-lint: disable=RS203 -- reason``.

Callback edges count as real calls (``backend.map`` really invokes the
chunk task), with the *caller's* handlers applied conservatively since
the exact invocation point is unknown.  CHA edges are followed only
between modules of the same subpackage — a textual method-name match
across subsystems (``FaultPlan.stats`` vs an unrelated ``stats``) must not
fabricate an escape path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.symbols import FaultSite, FunctionSummary, Guard
from repro.analysis.rules import register
from repro.analysis.rules.base import GraphRule

__all__ = ["ExceptionFlowRule", "INJECTED_EXCEPTION"]

#: The class every fault site raises (see repro.resilience.faults).
INJECTED_EXCEPTION = "InjectedFault"


def _same_subpackage(a: str, b: str) -> bool:
    return a.split(".")[:2] == b.split(".")[:2]


@register
class ExceptionFlowRule(GraphRule):
    rule_id = "RS203"
    summary = (
        "fault-injection site not dominated by a terminal handler, or a "
        "bare/over-broad except that drops the error"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        # (path, guard line) -> the first fault site found dying there.
        hidden: Dict[Tuple[str, int], Tuple[FunctionSummary, FaultSite]] = {}
        for fn in graph.functions.values():
            for fault in fn.fault_sites:
                yield from self._trace(graph, fn, fault, hidden)
        bodies = [m.body for m in graph.modules.values() if m.body is not None]
        for where in [*graph.functions.values(), *bodies]:
            for guard in where.guards:
                if guard.swallows:
                    yield self._swallow_finding(
                        where, guard, hidden.get((where.path, guard.lineno))
                    )

    # -- guard evaluation ------------------------------------------------
    def _apply_guards(
        self, guards: Sequence[Guard]
    ) -> Tuple[str, Optional[Guard]]:
        """Outcome of the exception meeting ``guards`` innermost-first:
        ``("stopped", g)``, ``("swallowed", g)``, or ``("escapes", None)``.
        """
        for guard in guards:
            if not guard.catches(INJECTED_EXCEPTION):
                continue
            if guard.reraises:
                continue  # caught, cleaned up, re-raised: keep ascending
            if guard.swallows:
                return "swallowed", guard
            return "stopped", guard
        return "escapes", None

    # -- the reverse walk ------------------------------------------------
    def _trace(
        self,
        graph: CallGraph,
        fn: FunctionSummary,
        fault: FaultSite,
        hidden: Dict[Tuple[str, int], Tuple[FunctionSummary, FaultSite]],
    ) -> Iterator[Finding]:
        """Walk callers from ``fault``; record the swallows it dies in
        (into ``hidden``) and yield a finding if it escapes uncaught."""
        outcome, guard = self._apply_guards(fault.guards)
        if outcome == "stopped":
            return
        if outcome == "swallowed":
            assert guard is not None
            hidden.setdefault((fn.path, guard.lineno), (fn, fault))
            return

        escape_roots: List[str] = []
        visited: Set[str] = {fn.qname}
        frontier: List[str] = [fn.qname]
        while frontier:
            current = frontier.pop(0)
            summary = graph.functions[current]
            callers = [
                e
                for e in graph.in_edges.get(current, ())
                if e.kind != "cha"
                or _same_subpackage(summary.module, e.caller)
            ]
            if not callers:
                escape_roots.append(current)
                continue
            for edge in callers:
                caller = graph.functions.get(edge.caller)
                if caller is None:
                    continue
                if edge.kind == "ref":
                    # The invocation point inside the receiver is unknown;
                    # give it the benefit of every handler the receiver has.
                    guards: Sequence[Guard] = tuple(caller.guards)
                else:
                    guards = edge.site.guards
                outcome, guard = self._apply_guards(guards)
                if outcome == "stopped":
                    continue
                if outcome == "swallowed":
                    assert guard is not None
                    hidden.setdefault((caller.path, guard.lineno), (fn, fault))
                    continue
                if caller.qname not in visited:
                    visited.add(caller.qname)
                    frontier.append(caller.qname)

        if escape_roots:
            roots = ", ".join(f"`{r}`" for r in sorted(escape_roots)[:3])
            yield self.graph_finding(
                fn.path,
                fault.lineno,
                fault.col,
                f"fault site '{fault.site}' can propagate uncaught to "
                f"{roots}; no RetryPolicy/degradation-ladder handler "
                "dominates this path",
            )

    def _swallow_finding(
        self,
        where: FunctionSummary,
        guard: Guard,
        hides: Optional[Tuple[FunctionSummary, FaultSite]],
    ) -> Finding:
        if hides is not None:
            origin, fault = hides
            message = (
                f"broad handler silently swallows fault site '{fault.site}' "
                f"(injected in `{origin.qname}`); chaos runs cannot observe "
                "the fault — record, re-raise, or degrade explicitly"
            )
        else:
            caught = ", ".join(guard.types)
            if len(guard.types) > 1:
                caught = f"({caught})"
            what = f"`except {caught}`" if guard.types else "bare `except:`"
            message = (
                f"{what} drops the error; narrow the exception types, "
                "re-raise, or record the error"
            )
        return self.graph_finding(where.path, guard.lineno, 1, message)
