"""RS202 — lock discipline in the concurrent packages.

The ``service`` / ``observability`` / ``resilience`` subsystems run user
requests on many threads.  A lock is any ``self.<attr>`` or module-level
name bound to ``threading.Lock()`` / ``RLock()`` (plus ``self._lock`` where
a base class builds it); semaphores and conditions are out of scope.  The
rule reports, per function:

* **unlocked mutation** — a class that builds a lock stores to (or
  deletes) ``self.<attr>`` while holding none of its own locks.  Such a
  store is either a forgotten lock (a data race the GIL hides until it
  doesn't) or state that should not live on a locked object.
  Constructors are exempt: the object is not shared yet;
* **bare ``acquire()``** on a lock — an exception before the matching
  ``release()`` leaves it held for good; ``with`` releases it on every
  path;

and, over the global lock-acquisition graph:

* **cycles** — lock A is (somewhere) acquired while B is held and B
  (somewhere else, possibly through a chain of calls) while A is held:
  the classic two-thread deadlock;
* **non-reentrant re-acquisition** — ``self._lock`` taken again on a call
  path that already holds it, when the lock is a plain ``Lock`` (an
  ``RLock`` self-edge is fine);
* **blocking calls under a lock** — ``time.sleep``, file I/O
  (``open`` / ``os.replace`` / ``Path.write_text`` …), or a pool
  ``map``/``submit`` executed while holding a lock serializes every other
  thread behind a slow operation.

Edges come from two sources: acquisitions made while another lock is
lexically held (``with`` blocks and bare ``acquire()`` calls), and the
*call closure* — a function invoked while a lock is held transitively
acquires whatever its callees acquire.  The closure follows ``direct``
and ``ref`` (callback) edges only; name-based CHA edges are deliberately
excluded, because ``self._data.get(...)`` textually matching some
project class's ``get`` method must not fabricate a deadlock.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.symbols import FunctionSummary
from repro.analysis.rules import register
from repro.analysis.rules.base import GraphRule, contains_parts

__all__ = ["LockOrderRule", "SCOPE"]

SCOPE = ("service", "observability", "resilience")

#: Methods that run before the object is shared (closures inside included).
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

#: Canonical dotted names that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "open",
        "os.replace",
        "os.rename",
        "os.fsync",
        "os.remove",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Attribute tails that mean file I/O on an opaque receiver (Path objects).
_BLOCKING_ATTRS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Execution-backend methods that fan work out (and wait on) worker pools.
_POOL_METHODS = frozenset({"map", "submit"})


def _in_scope(fn: FunctionSummary) -> bool:
    from pathlib import PurePosixPath

    return contains_parts(PurePosixPath(fn.path).parts, SCOPE)


@register
class LockOrderRule(GraphRule):
    rule_id = "RS202"
    summary = (
        "unlocked mutation of a lock-owning object, bare acquire(), "
        "lock-order cycle, non-reentrant re-acquisition, or blocking call "
        "while holding a lock"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        scoped = [fn for fn in graph.functions.values() if _in_scope(fn)]
        acquired_in_closure = self._closure_acquisitions(graph, scoped)

        # lock graph: edge held -> acquired, with one witness site each.
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

        def add(held: str, acquired: str, path: str, line: int) -> None:
            edges.setdefault((held, acquired), (path, line))

        for fn in scoped:
            for acq in fn.lock_acquisitions:
                for held in acq.held:
                    add(held, acq.lock_id, fn.path, acq.lineno)
            for site in fn.calls:
                if not site.locks_held:
                    continue
                for edge in graph.out_edges.get(fn.qname, ()):
                    if edge.site is not site or edge.kind == "cha":
                        continue
                    for lock in acquired_in_closure.get(edge.callee, ()):
                        for held in site.locks_held:
                            add(held, lock, fn.path, site.lineno)

        yield from self._unlocked_stores(graph, scoped)
        yield from self._bare_acquires(scoped)
        yield from self._self_edges(graph, edges)
        yield from self._cycles(edges)
        yield from self._blocking(graph, scoped)

    # -- transitive acquisitions ----------------------------------------
    def _closure_acquisitions(
        self, graph: CallGraph, scoped: List[FunctionSummary]
    ) -> Dict[str, Set[str]]:
        """lock ids acquired by each function or anything it (transitively)
        calls — direct + callback edges only, CHA excluded."""
        direct: Dict[str, Set[str]] = {}
        for fn in graph.functions.values():
            if fn.lock_acquisitions:
                direct[fn.qname] = {a.lock_id for a in fn.lock_acquisitions}
        closure: Dict[str, Set[str]] = {
            q: set(locks) for q, locks in direct.items()
        }
        # Propagate up the reverse edges to a fixpoint (graphs are small).
        changed = True
        while changed:
            changed = False
            for qname, locks in list(closure.items()):
                for edge in graph.in_edges.get(qname, ()):
                    if edge.kind == "cha":
                        continue
                    mine = closure.setdefault(edge.caller, set())
                    before = len(mine)
                    mine |= locks
                    if len(mine) != before:
                        changed = True
        return closure

    # -- per-function discipline ------------------------------------------
    def _unlocked_stores(
        self, graph: CallGraph, scoped: List[FunctionSummary]
    ) -> Iterator[Finding]:
        for fn in scoped:
            if not fn.attr_stores or fn.class_name is None:
                continue
            owner = f"{fn.module}.{fn.class_name}"
            cls = graph.classes.get(owner)
            method = fn.qname[len(owner) + 1:].split(".", 1)[0]
            if cls is None or not cls.locks or method in _CONSTRUCTORS:
                continue
            locks = ", ".join(f"`self.{name}`" for name in sorted(cls.locks))
            for store in fn.attr_stores:
                if any(lock.startswith(f"{owner}.") for lock in store.locks_held):
                    continue
                attr = next((a for a in store.attrs if a not in cls.locks), None)
                if attr is None:
                    continue
                yield self.graph_finding(
                    fn.path,
                    store.lineno,
                    store.col,
                    f"`{fn.class_name}.{method}` mutates `self.{attr}` "
                    f"holding none of its locks ({locks}) — "
                    f"{fn.class_name} owns a lock, so shared state must be "
                    "mutated under it",
                )

    def _bare_acquires(self, scoped: List[FunctionSummary]) -> Iterator[Finding]:
        for fn in scoped:
            for acq in fn.lock_acquisitions:
                if acq.bare:
                    yield self.graph_finding(
                        fn.path,
                        acq.lineno,
                        1,
                        f"bare `acquire()` of `{acq.lock_id}`: an exception "
                        "before the matching `release()` leaves it held — "
                        "take the lock with a `with` block",
                    )

    # -- lock graph -------------------------------------------------------
    def _reentrant(self, graph: CallGraph, lock_id: str) -> Optional[bool]:
        owner, leaf = lock_id.rsplit(".", 1)
        cls = graph.classes.get(owner)
        if cls is not None:
            return cls.locks.get(leaf)
        module = graph.modules.get(owner)
        if module is not None and leaf in module.module_locks:
            return module.module_locks[leaf]
        return None

    def _self_edges(
        self, graph: CallGraph, edges: Dict[Tuple[str, str], Tuple[str, int]]
    ) -> Iterator[Finding]:
        for (held, acquired), (path, line) in sorted(edges.items()):
            if held != acquired:
                continue
            if self._reentrant(graph, held) is False:
                yield self.graph_finding(
                    path,
                    line,
                    1,
                    f"`{held}` is re-acquired on a path that already holds "
                    "it, but it is a plain (non-reentrant) Lock — this "
                    "self-deadlocks; use an RLock or restructure",
                )

    def _cycles(
        self, edges: Dict[Tuple[str, str], Tuple[str, int]]
    ) -> Iterator[Finding]:
        adjacency: Dict[str, Set[str]] = {}
        for held, acquired in edges:
            if held != acquired:
                adjacency.setdefault(held, set()).add(acquired)

        reported: Set[Tuple[str, ...]] = set()
        for start in sorted(adjacency):
            cycle = self._find_cycle(adjacency, start)
            if cycle is None:
                continue
            canon = tuple(sorted(set(cycle)))
            if canon in reported:
                continue
            reported.add(canon)
            witness = edges[(cycle[0], cycle[1])]
            order = " -> ".join((*cycle, cycle[0]))
            yield self.graph_finding(
                witness[0],
                witness[1],
                1,
                f"lock-order cycle {order}: two threads taking these locks "
                "in opposite orders can deadlock; impose a global "
                "acquisition order",
            )

    @staticmethod
    def _find_cycle(
        adjacency: Dict[str, Set[str]], start: str
    ) -> Optional[List[str]]:
        """Shortest cycle through ``start`` (BFS back to the start node)."""
        parents: Dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            node = queue.pop(0)
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == start:
                    path = [node]
                    while node != start:
                        node = parents[node]
                        path.append(node)
                    return list(reversed(path))
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = node
                    queue.append(nxt)
        return None

    def _blocking(
        self, graph: CallGraph, scoped: List[FunctionSummary]
    ) -> Iterator[Finding]:
        for fn in scoped:
            for site in fn.calls:
                if not site.locks_held:
                    continue
                label = self._blocking_label(graph, fn, site)
                if label is None:
                    continue
                lock = site.locks_held[-1]
                yield self.graph_finding(
                    fn.path,
                    site.lineno,
                    site.col,
                    f"blocking call `{label}` while holding `{lock}`; "
                    "every other thread contending on the lock stalls "
                    "behind it — move the slow operation outside the "
                    "critical section",
                )

    def _blocking_label(
        self, graph: CallGraph, fn: FunctionSummary, site
    ) -> Optional[str]:
        if site.dotted is not None:
            canonical = graph.canonical(fn.module, site.dotted)
            if canonical in _BLOCKING_CALLS:
                return canonical
            tail = canonical.rsplit(".", 1)[-1]
            if tail in _BLOCKING_ATTRS:
                return tail
        elif site.attr in _BLOCKING_ATTRS:
            return site.attr
        # Pool fan-out: the resolved target is an execution-backend method.
        for edge in graph.out_edges.get(fn.qname, ()):
            if edge.site is not site or edge.kind == "ref":
                continue
            owner, _, method = edge.callee.rpartition(".")
            if method in _POOL_METHODS and ".pool" in owner:
                return f"{owner.rsplit('.', 1)[-1]}.{method}"
        return None
