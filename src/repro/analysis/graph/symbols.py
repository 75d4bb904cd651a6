"""Per-function summaries: everything the cross-module rules need from one AST.

A :class:`FunctionSummary` condenses a function body into the facts the
RS2xx analyses consume:

* **call sites** with the syntactic shape of the callee (dotted name,
  ``self.attr``, dynamic), the identifiers mentioned in the arguments
  (for seed-taint), any project-function *references* passed as arguments
  (for callback edges), the locks lexically held, and the ``try`` guards
  lexically enclosing the site;
* **seed taint**: identifiers that carry seed provenance.  Names that look
  seed-like (``seed``, ``rng``, ``generator`` …) are taint roots; plain
  assignments and ``for``/comprehension targets propagate taint from any
  right-hand side that mentions a tainted name, to a fixpoint.  The
  propagation is name-based and intra-procedural by design — the
  inter-procedural half is the call graph's job;
* **lock acquisitions** (``with self._lock:`` / ``with MODULE_LOCK:``,
  and bare ``.acquire()`` calls) for the lock-order analysis.  A lock is
  any ``self.<attr>`` or module-level name bound to ``threading.Lock()``
  or ``RLock()``; ``self._lock`` also counts where a base class builds it;
* **attribute stores** (``self.<attr> = …``, augmented, annotated,
  ``del``) with the locks held at each, for the lock-discipline check;
* **fault-injection sites** (``faults.fire("…")`` calls), for the
  exception-flow analysis;
* **guards**: every ``except`` handler in the function, classified as
  broad/narrow, swallowing, re-raising — the exception-flow analysis
  decides whether a propagating fault is *terminated* here.

Module-level code (top-level statements, class bodies, decorators and
default values) gets a summary of its own, :attr:`ModuleSummary.body`,
which is not a node of the call graph.

Summaries never look outside their own module; resolution happens in
:mod:`repro.analysis.graph.callgraph`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.finding import SourceFile
from repro.analysis.rules.base import dotted_name

__all__ = [
    "SEEDISH_EXACT",
    "SEEDISH_SUBSTRINGS",
    "is_seedish_name",
    "Guard",
    "CallSite",
    "LockAcquisition",
    "AttrStore",
    "FaultSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "collect_imports",
    "resolve",
    "summarize_module",
]

#: Identifier names treated as seed-provenance roots wherever they appear.
SEEDISH_SUBSTRINGS = ("seed", "rng")
SEEDISH_EXACT = frozenset({"generator", "generators", "gen", "gens", "ss"})


def is_seedish_name(name: str) -> bool:
    """Heuristic: does this identifier look like it carries seed provenance?"""
    lowered = name.lower()
    return lowered in SEEDISH_EXACT or any(
        part in lowered for part in SEEDISH_SUBSTRINGS
    )


_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


@dataclass(frozen=True)
class Guard:
    """One ``except`` handler lexically enclosing a site (or in a function).

    ``types`` holds the dotted source text of each caught type (empty for a
    bare ``except:``).  ``swallows`` means the handler is broad (bare,
    ``Exception`` or ``BaseException``, alone or in a tuple), does not
    re-raise, and never uses the error it binds: RS203 reports every such
    handler.  ``terminal`` means a propagating exception *stops* here: the
    handler is broad, does not re-raise, and demonstrably uses the error.
    """

    lineno: int
    types: Tuple[str, ...]
    is_broad: bool
    reraises: bool
    swallows: bool

    @property
    def terminal(self) -> bool:
        return self.is_broad and not self.reraises and not self.swallows

    def catches(self, exception: str) -> bool:
        """Would this handler catch ``exception`` (a class name)?

        Matching is by trailing name component — the summary has no type
        hierarchy, so a narrow handler only counts when it names the
        exception (or one of its textual base names) outright.
        """
        if self.is_broad:
            return True
        for typ in self.types:
            if typ.rsplit(".", 1)[-1] == exception:
                return True
        return False


@dataclass(frozen=True)
class CallSite:
    """One call expression, in enough detail to resolve it later."""

    lineno: int
    col: int
    #: Dotted source text of the callee (``"np.random.default_rng"``,
    #: ``"self.cache.get"``) or ``None`` for non-name callees (lambdas,
    #: calls on call results, subscripts).
    dotted: Optional[str]
    #: For attribute calls whose receiver is not a name chain
    #: (``a().b()``, ``d[k].save()``): the trailing attribute name, which
    #: still supports class-hierarchy resolution.
    attr: Optional[str]
    #: Identifiers mentioned anywhere in the argument expressions.
    arg_names: Tuple[str, ...]
    #: Keyword names used at the call (``f(seed=…)`` threads explicitly).
    keywords: Tuple[str, ...]
    #: Dotted names of *references* passed as arguments (callbacks) —
    #: resolved into project functions by the call graph.
    ref_args: Tuple[str, ...]
    #: Lock ids lexically held at this site (innermost last).
    locks_held: Tuple[str, ...]
    #: ``except`` guards lexically enclosing this site (innermost first).
    guards: Tuple[Guard, ...]
    #: True when the call has ``*args``/``**kwargs`` splats (the summary
    #: cannot see what they forward, so seed checks stay conservative).
    has_splat: bool = False
    #: Positional argument count — distinguishes ``default_rng()`` (no
    #: arguments at all) from ``default_rng(12345)`` (a constant seed, which
    #: mentions no identifiers but is perfectly reproducible).
    num_args: int = 0
    #: True when every positional argument is the literal ``None``
    #: (``default_rng(None)`` asks for fresh entropy explicitly).
    none_args: bool = False

    def passes_seedish(self, tainted: frozenset) -> bool:
        """Does any argument thread seed provenance into the callee?

        Seed-looking identifiers are provenance roots wherever they appear
        (``child_seed`` unpacked from a task tuple, ``self.seed``), so the
        check accepts tainted names, seed-like names, and seed-like
        trailing attribute components alike.
        """
        if any(is_seedish_name(kw) for kw in self.keywords):
            return True
        if any(
            name in tainted or is_seedish_name(name)
            for name in self.arg_names
        ):
            return True
        return any(
            is_seedish_name(ref.rsplit(".", 1)[-1]) for ref in self.ref_args
        )


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` block or bare ``<lock>.acquire()`` call."""

    lock_id: str
    lineno: int
    #: Locks already held when this one is acquired (outermost first).
    held: Tuple[str, ...]
    #: True for an ``acquire()`` call, which no ``with`` block releases.
    bare: bool = False


@dataclass(frozen=True)
class AttrStore:
    """One statement storing to (or deleting) ``self.<attr>`` targets."""

    attrs: Tuple[str, ...]
    lineno: int
    col: int
    #: Lock ids lexically held at the statement.
    locks_held: Tuple[str, ...]


@dataclass(frozen=True)
class FaultSite:
    """One fault-injection point: a ``faults.fire("site")`` call."""

    site: str
    lineno: int
    col: int
    guards: Tuple[Guard, ...]


@dataclass
class FunctionSummary:
    """Facts about one function/method (or nested function)."""

    qname: str  # module-qualified: "repro.service.planner.PlannerService.plan"
    module: str
    path: str
    lineno: int
    col: int
    name: str
    class_name: Optional[str]
    #: Enclosing function qname for nested defs, else None.
    parent: Optional[str]
    params: Tuple[str, ...]
    #: Parameter name -> True when its default is the literal ``None``.
    param_defaults_none: Dict[str, bool] = field(default_factory=dict)
    decorators: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    lock_acquisitions: List[LockAcquisition] = field(default_factory=list)
    attr_stores: List[AttrStore] = field(default_factory=list)
    fault_sites: List[FaultSite] = field(default_factory=list)
    guards: List[Guard] = field(default_factory=list)
    #: Names carrying seed provenance (params + propagated locals).
    tainted: frozenset = frozenset()
    has_global_write: Optional[int] = None  # line of a `global` statement

    @property
    def seedish_params(self) -> Tuple[str, ...]:
        return tuple(p for p in self.params if is_seedish_name(p))

    @property
    def has_broad_terminal_guard(self) -> bool:
        return any(g.terminal for g in self.guards)


@dataclass
class ClassSummary:
    """One class: methods, base-class names, and the locks it builds."""

    name: str
    module: str
    path: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``self.<attr>`` names bound to ``Lock()``/``RLock()`` -> reentrant.
    locks: Dict[str, bool] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """One parsed module: functions, classes, imports, module-level locks."""

    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Local alias -> canonical dotted name (absolute *and* relative imports).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to ``threading.Lock()`` / ``RLock()``.
    module_locks: Dict[str, bool] = field(default_factory=dict)  # name -> reentrant
    #: Module-level function/class names (definition order).
    toplevel: Set[str] = field(default_factory=set)
    #: Module-level code: everything that runs at import time.
    body: Optional[FunctionSummary] = None

    def all_functions(self) -> List[FunctionSummary]:
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return out


# ---------------------------------------------------------------------------
# Guard classification
# ---------------------------------------------------------------------------


def _handler_types(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    node = handler.type
    if node is None:
        return ()
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    out = []
    for el in elts:
        dotted = dotted_name(el)
        out.append(dotted if dotted is not None else "<dynamic>")
    return tuple(out)


def _uses_name(body: Sequence[ast.stmt], name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for stmt in body
        for node in ast.walk(stmt)
    )


def _guard_from_handler(handler: ast.ExceptHandler) -> Guard:
    types = _handler_types(handler)
    is_broad = handler.type is None or any(
        t.rsplit(".", 1)[-1] in _BROAD_EXCEPTIONS for t in types
    )
    reraises = any(
        isinstance(node, ast.Raise)
        for stmt in handler.body
        for node in ast.walk(stmt)
    )
    uses = bool(handler.name) and _uses_name(handler.body, handler.name)
    swallows = is_broad and not reraises and not uses
    return Guard(
        lineno=handler.lineno,
        types=types,
        is_broad=is_broad,
        reraises=reraises,
        swallows=swallows,
    )


# ---------------------------------------------------------------------------
# Import collection (absolute + relative) and name resolution
# ---------------------------------------------------------------------------


def collect_imports(
    tree: ast.AST, module: str, is_package: bool = False
) -> Dict[str, str]:
    """Local alias -> canonical dotted name, resolving relative imports.

    ``from .keys import plan_key`` inside ``repro.service.planner`` maps
    ``plan_key -> repro.service.keys.plan_key``.  In a package's
    ``__init__.py`` (``is_package``) the module is itself the current
    package: ``from .keys import plan_key`` inside ``repro.service`` maps
    to ``repro.service.keys.plan_key``.  Star imports are ignored (none
    exist in this repository; the linter would flag them anyway).
    """
    parts = module.split(".") if module else []
    package_parts = parts if is_package else parts[:-1]
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative: level=1 is the current package, 2 its parent…
                up = node.level - 1
                base_parts = package_parts[: len(package_parts) - up] if up else list(package_parts)
                base = ".".join(base_parts)
                prefix = f"{base}.{node.module}" if node.module else base
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{prefix}.{alias.name}"
    return aliases


def resolve(imports: Dict[str, str], dotted: str) -> str:
    """Canonical form of a dotted source name through ``imports``
    (:func:`collect_imports`): ``np.random.rand`` under ``import numpy as
    np`` is ``numpy.random.rand``; an unimported head stays as written."""
    head, _, rest = dotted.partition(".")
    canonical_head = imports.get(head, head)
    return f"{canonical_head}.{rest}" if rest else canonical_head


# ---------------------------------------------------------------------------
# The summarizing visitor
# ---------------------------------------------------------------------------

#: Lock constructors (canonical dotted name) -> whether the lock is reentrant.
_LOCK_FACTORIES = {"threading.Lock": False, "threading.RLock": True}

#: A class's locks are the ones it builds, plus ``self._lock`` by convention:
#: ``ShardStore`` takes the ``_lock`` its base ``PlanCache`` builds.
_CONVENTIONAL_LOCK = "_lock"


def _lock_factory(value: Optional[ast.AST], imports: Dict[str, str]) -> Optional[bool]:
    """Reentrancy of a ``threading.Lock()``/``RLock()`` call, else ``None``."""
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None
    return _LOCK_FACTORIES.get(resolve(imports, dotted))


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.attr``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attrs(targets: Sequence[ast.AST]) -> List[str]:
    """``self.<attr>`` names among assignment targets, unpacking included."""
    out: List[str] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            out.extend(_self_attrs(target.elts))
        elif isinstance(target, ast.Starred):
            out.extend(_self_attrs([target.value]))
        else:
            attr = _self_attr(target)
            if attr is not None:
                out.append(attr)
    return out


def _class_locks(node: ast.ClassDef, imports: Dict[str, str]) -> Dict[str, bool]:
    """``self.<attr>`` names a class binds to a lock factory -> reentrant."""
    locks: Dict[str, bool] = {}
    for item in ast.walk(node):
        if isinstance(item, ast.Assign):
            targets: List[ast.expr] = item.targets
        elif isinstance(item, ast.AnnAssign):
            targets = [item.target]
        else:
            continue
        reentrant = _lock_factory(item.value, imports)
        if reentrant is not None:
            for attr in _self_attrs(targets):
                locks[attr] = reentrant
    return locks


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _target_names(target: ast.AST) -> Set[str]:
    """Plain-name targets of an assignment/for/comprehension target."""
    out: Set[str] = set()
    if isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for el in target.elts:
            out |= _target_names(el)
    elif isinstance(target, ast.Starred):
        out |= _target_names(target.value)
    return out


_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: A nested definition awaiting its own summary:
#: (def node, enclosing qname, class name, that class's locks).
_Nested = Tuple[_Def, str, Optional[str], Dict[str, bool]]


class _FunctionCollector(ast.NodeVisitor):
    """Walks one function body, tracking locks, guards, calls, taint."""

    def __init__(
        self,
        summary: FunctionSummary,
        module_summary: ModuleSummary,
        class_name: Optional[str],
        class_locks: Dict[str, bool],
    ):
        self.summary = summary
        self.module_summary = module_summary
        self.class_name = class_name
        self.class_locks = class_locks
        self.lock_stack: List[str] = []
        self.guard_stack: List[Guard] = []
        self.nested_sink: List[_Nested] = []
        #: (target_names, rhs_names) pairs for the taint fixpoint.
        self.assignments: List[Tuple[Set[str], Set[str]]] = []

    # -- lock identification -------------------------------------------
    def _lock_id(self, expr: ast.AST) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None and (
            attr in self.class_locks or attr == _CONVENTIONAL_LOCK
        ):
            owner = self.class_name or "<module>"
            return f"{self.summary.module}.{owner}.{attr}"
        if isinstance(expr, ast.Name):
            if expr.id in self.module_summary.module_locks:
                return f"{self.summary.module}.{expr.id}"
        return None

    def _record_store(self, node: ast.stmt, targets: Sequence[ast.AST]) -> None:
        attrs = _self_attrs(targets)
        if attrs:
            self.summary.attr_stores.append(
                AttrStore(
                    attrs=tuple(attrs),
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    locks_held=tuple(self.lock_stack),
                )
            )

    # -- statements -----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                self.summary.lock_acquisitions.append(
                    LockAcquisition(
                        lock_id=lock,
                        lineno=item.context_expr.lineno,
                        held=tuple(self.lock_stack),
                    )
                )
                acquired.append(lock)
            else:
                self.visit(item.context_expr)
        self.lock_stack.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.lock_stack.pop()

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Try(self, node: ast.Try) -> None:
        guards = [_guard_from_handler(h) for h in node.handlers]
        self.summary.guards.extend(guards)
        self.guard_stack.extend(guards)
        for stmt in node.body:
            self.visit(stmt)
        for _ in guards:
            self.guard_stack.pop()
        # Handler/else/finally bodies are *not* protected by this try.
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        for stmt in node.finalbody:
            self.visit(stmt)

    visit_TryStar = visit_Try  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        if self.summary.has_global_write is None:
            self.summary.has_global_write = node.lineno

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_store(node, node.targets)
        targets: Set[str] = set()
        for target in node.targets:
            targets |= _target_names(target)
        if targets:
            self.assignments.append((targets, _names_in(node.value)))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_store(node, [node.target])
        if node.value is not None:
            targets = _target_names(node.target)
            if targets:
                self.assignments.append((targets, _names_in(node.value)))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_store(node, node.targets)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        targets = _target_names(node.target)
        if targets:
            self.assignments.append((targets, _names_in(node.iter)))
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            targets = _target_names(gen.target)
            if targets:
                self.assignments.append((targets, _names_in(gen.iter)))

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    visit_SetComp = visit_ListComp  # type: ignore[assignment]
    visit_GeneratorExp = visit_ListComp  # type: ignore[assignment]

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # -- nested definitions ---------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested_sink.append(
            (node, self.summary.qname, self.class_name, self.class_locks)
        )

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # A nested class's methods become nested functions; the rest of its
        # body runs where the class statement stands, so it counts here.
        locks = _class_locks(node, self.module_summary.imports)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nested_sink.append(
                    (item, self.summary.qname, node.name, locks)
                )
            else:
                self.visit(item)

    def visit_header(self, node: Union[_Def, ast.ClassDef]) -> None:
        """What a ``def``/``class`` statement evaluates where it stands:
        decorators, default values, base classes and class keywords."""
        exprs: List[ast.expr] = list(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            exprs += node.bases + [kw.value for kw in node.keywords]
        else:
            exprs += node.args.defaults
            exprs += [d for d in node.args.kw_defaults if d is not None]
        for expr in exprs:
            self.visit(expr)

    # -- calls -----------------------------------------------------------
    def _maybe_fault_site(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted.rsplit(".", 1)[-1] != "fire" or "faults" not in dotted:
            return
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            self.summary.fault_sites.append(
                FaultSite(
                    site=node.args[0].value,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    guards=tuple(reversed(self.guard_stack)),
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        self._maybe_fault_site(node)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "acquire":
            lock = self._lock_id(node.func.value)
            if lock is not None:
                self.summary.lock_acquisitions.append(
                    LockAcquisition(
                        lock_id=lock,
                        lineno=node.lineno,
                        held=tuple(self.lock_stack),
                        bare=True,
                    )
                )

        arg_names: Set[str] = set()
        ref_args: List[str] = []
        has_splat = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                has_splat = True
                arg = arg.value
            arg_names |= _names_in(arg)
            ref_args.extend(self._ref_candidates(arg))
        keywords = []
        for kw in node.keywords:
            if kw.arg is None:
                has_splat = True
            else:
                keywords.append(kw.arg)
            arg_names |= _names_in(kw.value)
            ref_args.extend(self._ref_candidates(kw.value))

        attr_tail = (
            node.func.attr
            if dotted is None and isinstance(node.func, ast.Attribute)
            else None
        )
        self.summary.calls.append(
            CallSite(
                lineno=node.lineno,
                col=node.col_offset + 1,
                dotted=dotted,
                attr=attr_tail,
                arg_names=tuple(sorted(arg_names)),
                keywords=tuple(keywords),
                ref_args=tuple(dict.fromkeys(ref_args)),
                locks_held=tuple(self.lock_stack),
                guards=tuple(reversed(self.guard_stack)),
                has_splat=has_splat,
                num_args=len(node.args),
                none_args=bool(node.args) and all(
                    isinstance(a, ast.Constant) and a.value is None
                    for a in node.args
                ),
            )
        )
        # Visit arguments (nested calls) and non-name callee expressions.
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if dotted is None:
            self.visit(node.func)
        elif isinstance(node.func, ast.Attribute):
            # The receiver chain may itself contain calls: a().b()
            self.visit(node.func.value)

    @staticmethod
    def _ref_candidates(expr: ast.AST) -> List[str]:
        """Bare function references inside an argument expression.

        ``run_ladder([("mc", guarded_mc)])`` passes ``guarded_mc`` by
        reference inside a list of tuples; any Name/Attribute that is not
        itself called is a candidate callback.  Resolution (and discarding
        of plain data names) happens in the call graph.
        """
        out: List[str] = []
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = dotted_name(node)
                if dotted is not None:
                    out.append(dotted)
        return out


def _params_of(node) -> Tuple[Tuple[str, ...], Dict[str, bool]]:
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args)
    names = [a.arg for a in ordered]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
        ordered = ordered[1:]
    defaults_none: Dict[str, bool] = {}
    defaults = list(args.defaults)
    for arg, default in zip(ordered[len(ordered) - len(defaults):], defaults):
        defaults_none[arg.arg] = (
            isinstance(default, ast.Constant) and default.value is None
        )
    for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
        names.append(kwarg.arg)
        if default is not None:
            defaults_none[kwarg.arg] = (
                isinstance(default, ast.Constant) and default.value is None
            )
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names), defaults_none


def _summarize_function(
    node,
    module_summary: ModuleSummary,
    qname: str,
    class_name: Optional[str],
    class_locks: Dict[str, bool],
    parent: Optional[str],
    path: str,
) -> FunctionSummary:
    params, defaults_none = _params_of(node)
    decorators = tuple(
        d for d in (dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in node.decorator_list)
        if d is not None
    )
    summary = FunctionSummary(
        qname=qname,
        module=module_summary.module,
        path=path,
        lineno=node.lineno,
        col=node.col_offset + 1,
        name=node.name,
        class_name=class_name,
        parent=parent,
        params=params,
        param_defaults_none=defaults_none,
        decorators=decorators,
    )
    collector = _FunctionCollector(summary, module_summary, class_name, class_locks)
    for stmt in node.body:
        collector.visit(stmt)
    _finish(collector)
    return summary


def _finish(collector: _FunctionCollector) -> None:
    """Seed taint to a fixpoint, then summarize the nested definitions."""
    summary, module_summary = collector.summary, collector.module_summary
    # Roots are seed-looking params and locals; plain assignments propagate
    # taint from rhs mentions.
    tainted: Set[str] = {p for p in summary.params if is_seedish_name(p)}
    changed = True
    while changed:
        changed = False
        for targets, rhs_names in collector.assignments:
            if targets & tainted:
                continue
            if any(is_seedish_name(n) for n in rhs_names) or (rhs_names & tainted):
                tainted |= targets
                changed = True
    # Any identifier that *looks* seeded is a root wherever it appears.
    summary.tainted = frozenset(tainted)

    # Nested defs become their own summaries, registered on the module.
    for child, parent_qname, child_class, child_locks in collector.nested_sink:
        child_qname = f"{parent_qname}.<locals>.{child.name}"
        child_summary = _summarize_function(
            child, module_summary, child_qname, child_class, child_locks,
            parent_qname, summary.path,
        )
        local_key = child_qname[len(module_summary.module) + 1:]
        module_summary.functions[local_key] = child_summary


def summarize_module(source: SourceFile, module: str) -> ModuleSummary:
    """Summarize one parsed module under its dotted ``module`` name."""
    tree = source.tree
    assert tree is not None
    summary = ModuleSummary(
        module=module,
        path=source.path,
        imports=collect_imports(tree, module, source.is_package),
    )

    # Module-level locks first: function bodies reference them by name.
    for node in tree.body:  # type: ignore[attr-defined]
        if isinstance(node, ast.Assign):
            reentrant = _lock_factory(node.value, summary.imports)
            if reentrant is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.module_locks[target.id] = reentrant

    body = FunctionSummary(
        qname=f"{module}.<module>",
        module=module,
        path=source.path,
        lineno=1,
        col=1,
        name="<module>",
        class_name=None,
        parent=None,
        params=(),
    )
    summary.body = body
    top = _FunctionCollector(body, summary, None, {})
    for node in tree.body:  # type: ignore[attr-defined]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top.visit_header(node)
            qname = f"{module}.{node.name}"
            summary.functions[node.name] = _summarize_function(
                node, summary, qname, None, {}, None, source.path
            )
            summary.toplevel.add(node.name)
        elif isinstance(node, ast.ClassDef):
            top.visit_header(node)
            cls = ClassSummary(
                name=node.name,
                module=module,
                path=source.path,
                lineno=node.lineno,
                bases=tuple(
                    b for b in (dotted_name(base) for base in node.bases)
                    if b is not None
                ),
                locks=_class_locks(node, summary.imports),
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    top.visit_header(item)
                    qname = f"{module}.{node.name}.{item.name}"
                    cls.methods[item.name] = _summarize_function(
                        item, summary, qname, node.name, cls.locks, None, source.path
                    )
                else:
                    top.visit(item)
            summary.classes[node.name] = cls
            summary.toplevel.add(node.name)
        else:
            top.visit(node)
    _finish(top)
    return summary
