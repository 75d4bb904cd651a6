"""Symbol table, call-site resolution, and reachability.

:func:`build_graph` turns the engine's parsed :class:`SourceFile` set into
a :class:`CallGraph`: every function summarized (:mod:`.symbols`), every
call site classified, and an edge list the RS2xx rules traverse.

Modules are keyed by :attr:`SourceFile.module`, the dotted name the
engine gives each file.  A dotted-*suffix* index bridges fixture trees
whose imports say ``pkg.helpers`` while the path-derived name is ``tmp
.pkg.helpers``: an exact match wins, a unique suffix match is accepted,
an ambiguous suffix stays unresolved.

Call-site classification (the ``--stats`` buckets)
    * ``resolved`` — at least one project function identified, via local /
      module scope, the import map, ``self``/``cls`` + base-class lookup,
      or name-based class-hierarchy analysis (CHA) for attribute calls;
    * ``external`` — provably outside the project: the canonical name
      roots in a non-project module (``numpy``, ``threading`` …), is a
      builtin, or is an attribute that *no* project class defines (the
      symbol table is complete for project code, so ``d.setdefault`` with
      no project ``setdefault`` anywhere cannot be a project call);
    * ``dynamic`` — genuinely unresolvable statically: lambdas, calls on
      call results, calls through parameters/locals bound at runtime.

    ``resolution_rate = resolved / (resolved + dynamic)`` — external calls
    are excluded from the denominator because they are not *intra-project*
    call sites (see docs/ANALYSIS.md for the caveats).

Edges
    ``direct`` (single known target), ``cha`` (one of several same-named
    methods — sound for reachability, deliberately excluded from the
    lock-order closure to avoid container-method false cycles), and
    ``ref`` (callback: a function *reference* passed as an argument, edge
    drawn from the receiving call's project targets — e.g. ``run_ladder``
    → each rung evaluator).
"""

from __future__ import annotations

import builtins
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.finding import SourceFile
from repro.analysis.graph.symbols import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    resolve,
    summarize_module,
)

__all__ = ["Edge", "GraphStats", "CallGraph", "build_graph"]

GRAPH_SCHEMA_VERSION = 2

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names so common on builtin containers/strings that a name-based
#: CHA edge through them is almost always noise.  The edges still exist
#: (kind="cha") — rules that need precision skip this set when traversing.
COMMON_METHOD_NAMES = frozenset(
    {
        "get",
        "items",
        "keys",
        "values",
        "append",
        "extend",
        "add",
        "pop",
        "update",
        "copy",
        "clear",
        "join",
        "split",
        "strip",
        "format",
        "encode",
        "decode",
        "read",
        "write",
        "close",
        "sort",
        "count",
        "index",
    }
)


@dataclass(frozen=True)
class Edge:
    """One resolved call edge.  ``site`` is the originating call site —
    for ``ref`` edges it is the *registering* call (where the reference
    was passed), not the unknown invocation point inside ``caller``."""

    caller: str  # function qname
    callee: str  # function qname
    kind: str  # "direct" | "cha" | "ref"
    site: CallSite

    def to_dict(self) -> Dict[str, object]:
        return {
            "caller": self.caller,
            "callee": self.callee,
            "kind": self.kind,
            "line": self.site.lineno,
        }


@dataclass
class GraphStats:
    """Resolution statistics for ``repro-lint --graph --stats``."""

    n_modules: int = 0
    n_functions: int = 0
    n_classes: int = 0
    n_call_sites: int = 0
    n_resolved: int = 0
    n_external: int = 0
    n_dynamic: int = 0
    n_edges: int = 0

    @property
    def resolution_rate(self) -> float:
        denom = self.n_resolved + self.n_dynamic
        return self.n_resolved / denom if denom else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "modules": self.n_modules,
            "functions": self.n_functions,
            "classes": self.n_classes,
            "call_sites": self.n_call_sites,
            "resolved": self.n_resolved,
            "external": self.n_external,
            "dynamic": self.n_dynamic,
            "edges": self.n_edges,
            "resolution_rate": round(self.resolution_rate, 4),
        }


@dataclass
class CallGraph:
    """The project symbol table plus the resolved edge list."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    stats: GraphStats = field(default_factory=GraphStats)
    out_edges: Dict[str, List[Edge]] = field(default_factory=dict)
    in_edges: Dict[str, List[Edge]] = field(default_factory=dict)
    #: Classes defining each method name (for rules doing their own CHA).
    method_index: Dict[str, List[str]] = field(default_factory=dict)

    # -- name helpers ----------------------------------------------------
    def canonical(self, module: str, dotted: str) -> str:
        """Map a dotted source name through the module's import aliases."""
        summary = self.modules.get(module)
        return dotted if summary is None else resolve(summary.imports, dotted)

    # -- traversal -------------------------------------------------------
    def root_of(
        self, roots: Iterable[str], skip_common_cha: bool = False
    ) -> Dict[str, str]:
        """Function qname -> the first of ``roots`` that reaches it.

        Breadth-first over every edge kind, roots in the order given (each
        root maps to itself).  ``skip_common_cha`` drops CHA edges through
        :data:`COMMON_METHOD_NAMES`, for rules that need precision.
        """
        via = {root: root for root in roots}
        frontier = deque(via)
        while frontier:
            current = frontier.popleft()
            for edge in self.out_edges.get(current, ()):
                if (
                    skip_common_cha
                    and edge.kind == "cha"
                    and edge.callee.rsplit(".", 1)[-1] in COMMON_METHOD_NAMES
                ):
                    continue
                if edge.callee not in via:
                    via[edge.callee] = via[current]
                    frontier.append(edge.callee)
        return via

    # -- serialization ---------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        functions = []
        for qname in sorted(self.functions):
            fs = self.functions[qname]
            functions.append(
                {
                    "qname": qname,
                    "module": fs.module,
                    "path": fs.path,
                    "line": fs.lineno,
                    "params": list(fs.params),
                    "calls": len(fs.calls),
                    "locks": [a.lock_id for a in fs.lock_acquisitions],
                    "fault_sites": [f.site for f in fs.fault_sites],
                }
            )
        return {
            "version": GRAPH_SCHEMA_VERSION,
            "stats": self.stats.to_dict(),
            "functions": functions,
            "edges": [
                e.to_dict()
                for e in sorted(
                    self.edges, key=lambda e: (e.caller, e.callee, e.site.lineno)
                )
            ],
        }


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: Top-level components of project module names ("repro", …).
        self.project_roots: Set[str] = {
            m.split(".", 1)[0] for m in graph.modules
        }
        self._suffix_cache: Dict[str, Optional[str]] = {}

    # -- symbol-table lookups -------------------------------------------
    def _exact(self, canonical: str) -> Optional[List[str]]:
        """Exact qname lookup: function, or class → its ``__init__``."""
        graph = self.graph
        if canonical in graph.functions:
            return [canonical]
        if canonical in graph.classes:
            ctor = f"{canonical}.__init__"
            return [ctor] if ctor in graph.functions else []
        return None

    def _suffix(self, canonical: str) -> Optional[List[str]]:
        """Unique dotted-suffix match (fixture trees, partial scans)."""
        if canonical in self._suffix_cache:
            hit = self._suffix_cache[canonical]
            return None if hit is None else self._exact(hit)
        needle = f".{canonical}"
        hits = [q for q in self.graph.functions if q.endswith(needle)]
        hits += [c for c in self.graph.classes if c.endswith(needle)]
        resolved = hits[0] if len(hits) == 1 else None
        self._suffix_cache[canonical] = resolved
        return None if resolved is None else self._exact(resolved)

    def lookup(self, canonical: str) -> Optional[List[str]]:
        # `_exact` returning [] (a class with no explicit __init__) is a
        # successful resolution with no edge — don't fall through to suffix.
        exact = self._exact(canonical)
        if exact is not None:
            return exact
        return self._suffix(canonical)

    # -- class hierarchy -------------------------------------------------
    def _project_class(self, module: ModuleSummary, name: str) -> Optional[ClassSummary]:
        """Resolve a (possibly dotted/imported) class name to a summary."""
        if name in module.classes:
            return module.classes[name]
        canonical = self.graph.canonical(module.module, name)
        cls = self.graph.classes.get(canonical)
        if cls is not None:
            return cls
        tail = canonical.rsplit(".", 1)[-1]
        hits = [c for q, c in self.graph.classes.items() if q.endswith(f".{tail}")]
        return hits[0] if len(hits) == 1 else None

    def method_on(
        self, module: ModuleSummary, class_name: str, method: str
    ) -> Optional[FunctionSummary]:
        """Find ``method`` on ``class_name`` or its (project) bases, BFS."""
        seen: Set[str] = set()
        queue: List[Tuple[ModuleSummary, str]] = [(module, class_name)]
        while queue:
            mod, name = queue.pop(0)
            cls = self._project_class(mod, name)
            if cls is None or cls.name in seen:
                continue
            seen.add(cls.name)
            if method in cls.methods:
                return cls.methods[method]
            base_module = self.graph.modules.get(cls.module, mod)
            for base in cls.bases:
                queue.append((base_module, base))
        return None

    # -- per-site resolution --------------------------------------------
    def resolve(
        self, fn: FunctionSummary, site: CallSite
    ) -> Tuple[str, List[Tuple[str, str]]]:
        """Classify one call site.

        Returns ``(classification, targets)`` where classification is
        ``"resolved"`` / ``"external"`` / ``"dynamic"`` and targets are
        ``(qname, kind)`` pairs.
        """
        dotted = site.dotted
        module = self.graph.modules[fn.module]
        if dotted is None:
            if site.attr is not None:
                # `a().b()` / `d[k].save()`: the receiver is opaque but the
                # attribute name still narrows it down via CHA.
                return self._cha(site.attr)
            return "dynamic", []

        if "." not in dotted:
            return self._resolve_simple(fn, module, dotted)
        return self._resolve_attribute(fn, module, dotted)

    def _local_scope(
        self, fn: FunctionSummary, module: ModuleSummary, name: str
    ) -> Optional[FunctionSummary]:
        """Nested defs visible from ``fn``: its own, then enclosing ones."""
        qname: Optional[str] = fn.qname
        while qname is not None:
            local = qname[len(module.module) + 1 :]
            candidate = module.functions.get(f"{local}.<locals>.{name}")
            if candidate is not None:
                return candidate
            enclosing = self.graph.functions.get(qname)
            qname = enclosing.parent if enclosing is not None else None
        return None

    def _resolve_simple(
        self, fn: FunctionSummary, module: ModuleSummary, name: str
    ) -> Tuple[str, List[Tuple[str, str]]]:
        nested = self._local_scope(fn, module, name)
        if nested is not None:
            return "resolved", [(nested.qname, "direct")]
        if name in module.functions and name in module.toplevel:
            return "resolved", [(module.functions[name].qname, "direct")]
        if name in module.classes:
            ctor = module.classes[name].methods.get("__init__")
            return "resolved", [(ctor.qname, "direct")] if ctor else []
        if name in module.imports:
            return self._resolve_import(module.imports[name])
        if name == "cls" and fn.class_name is not None:
            ctor = self.method_on(module, fn.class_name, "__init__")
            return "resolved", [(ctor.qname, "direct")] if ctor else []
        if name in _BUILTIN_NAMES:
            return "external", []
        # A parameter or local bound at runtime (callback invocation).
        return "dynamic", []

    def _resolve_import(
        self, canonical: str, depth: int = 0
    ) -> Tuple[str, List[Tuple[str, str]]]:
        targets = self.lookup(canonical)
        if targets is not None:
            return "resolved", [(t, "direct") for t in targets]
        root = canonical.split(".", 1)[0]
        if root in self.project_roots:
            owner, _, leaf = canonical.rpartition(".")
            owner_mod = self.graph.modules.get(owner)
            if owner_mod is not None:
                # Package re-export: `from repro.platforms.spot import X`
                # where spot/__init__.py itself does `from .scenario
                # import X` — chase the indirection (bounded: re-export
                # chains are short and could in principle cycle).
                reexport = owner_mod.imports.get(leaf)
                if reexport is not None and reexport != canonical and depth < 5:
                    return self._resolve_import(reexport, depth + 1)
                # A scanned module whose `leaf` names no function/class
                # (a module-level constant, data): dynamic.
                return "dynamic", []
            if canonical in self.graph.modules:
                return "dynamic", []
            # Project-rooted but the module was not scanned: external to
            # this analysis run.
            return "external", []
        return "external", []

    def _resolve_attribute(
        self, fn: FunctionSummary, module: ModuleSummary, dotted: str
    ) -> Tuple[str, List[Tuple[str, str]]]:
        head, _, rest = dotted.partition(".")
        attr = dotted.rsplit(".", 1)[-1]

        # Through the import map: `keys.plan_key`, `np.mean`, `time.sleep`.
        if head in module.imports:
            canonical = f"{module.imports[head]}.{rest}"
            classification, targets = self._resolve_import(canonical)
            if classification == "resolved":
                return classification, targets
            if classification == "external":
                return "external", []
            # fall through to CHA for `module_alias.obj.method` chains

        # `self.method()` / `cls.method()` on the enclosing class.
        if head in ("self", "cls") and fn.class_name is not None and "." not in rest:
            found = self.method_on(module, fn.class_name, attr)
            if found is not None:
                return "resolved", [(found.qname, "direct")]

        # `ClassName.method(...)` with a module-local or imported class.
        if "." not in rest:
            cls = module.classes.get(head)
            if cls is None and head in module.imports:
                cls = self.graph.classes.get(module.imports[head])
            if cls is not None:
                found = self.method_on(module, cls.name, attr)
                if found is not None:
                    return "resolved", [(found.qname, "direct")]

        return self._cha(attr)

    def _cha(self, attr: str) -> Tuple[str, List[Tuple[str, str]]]:
        """Name-based CHA: every project class defining ``attr``.

        Always kind="cha", even with a single owner — the *mechanism* is a
        textual method-name match on an untyped receiver, and precision-
        sensitive consumers (the lock-order closure) filter on that.
        """
        owners = self.graph.method_index.get(attr)
        if owners:
            return "resolved", [(f"{owner}.{attr}", "cha") for owner in owners]
        # No project class defines this attribute anywhere — the symbol
        # table is complete for project code, so this is provably external.
        return "external", []

    # -- callback references --------------------------------------------
    def resolve_ref(
        self, fn: FunctionSummary, ref: str
    ) -> Optional[FunctionSummary]:
        """A function *reference* in an argument: local / module / import /
        ``self.method`` only — never CHA (a bare data name must not
        accidentally match some method somewhere)."""
        module = self.graph.modules[fn.module]
        if "." not in ref:
            nested = self._local_scope(fn, module, ref)
            if nested is not None:
                return nested
            if ref in module.functions and ref in module.toplevel:
                return module.functions[ref]
            if ref in module.imports:
                targets = self.lookup(module.imports[ref])
                if targets:
                    return self.graph.functions.get(targets[0])
            return None
        head, _, rest = ref.partition(".")
        if head in ("self", "cls") and fn.class_name is not None and "." not in rest:
            return self.method_on(module, fn.class_name, rest)
        if head in module.imports:
            targets = self.lookup(f"{module.imports[head]}.{rest}")
            if targets:
                return self.graph.functions.get(targets[0])
        return None


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def build_graph(sources: Sequence[SourceFile]) -> CallGraph:
    """Summarize + resolve every parsed source into a :class:`CallGraph`."""
    graph = CallGraph()
    for source in sources:
        if source.tree is None:
            continue
        module = source.module
        summary = summarize_module(source, module)
        graph.modules[module] = summary
        for fs in summary.all_functions():
            graph.functions[fs.qname] = fs
        for cls in summary.classes.values():
            graph.classes[f"{module}.{cls.name}"] = cls
            for method in cls.methods:
                graph.method_index.setdefault(method, []).append(
                    f"{module}.{cls.name}"
                )

    stats = graph.stats
    stats.n_modules = len(graph.modules)
    stats.n_functions = len(graph.functions)
    stats.n_classes = len(graph.classes)

    resolver = _Resolver(graph)
    edge_seen: Set[Tuple[str, str, str, int]] = set()

    def add_edge(caller: str, callee: str, kind: str, site: CallSite) -> None:
        key = (caller, callee, kind, site.lineno)
        if key in edge_seen or callee not in graph.functions:
            return
        edge_seen.add(key)
        edge = Edge(caller=caller, callee=callee, kind=kind, site=site)
        graph.edges.append(edge)
        graph.out_edges.setdefault(caller, []).append(edge)
        graph.in_edges.setdefault(callee, []).append(edge)

    for fn in graph.functions.values():
        for site in fn.calls:
            classification, targets = resolver.resolve(fn, site)
            stats.n_call_sites += 1
            if classification == "resolved":
                stats.n_resolved += 1
            elif classification == "external":
                stats.n_external += 1
            else:
                stats.n_dynamic += 1
            for qname, kind in targets:
                add_edge(fn.qname, qname, kind, site)

            if not site.ref_args:
                continue
            refs = [
                r
                for r in (resolver.resolve_ref(fn, ref) for ref in site.ref_args)
                if r is not None
            ]
            if not refs:
                continue
            # A reference handed to a project function may be invoked by
            # it (callback edge target → ref); handed to an external or
            # dynamic callee, the invocation still originates in `fn`'s
            # dataflow, so the caller keeps the edge.
            receivers = [q for q, _ in targets] or [fn.qname]
            for ref_fn in refs:
                if ref_fn.qname == fn.qname:
                    continue
                for receiver in receivers:
                    add_edge(receiver, ref_fn.qname, "ref", site)

    stats.n_edges = len(graph.edges)
    return graph
