"""Deterministic, seedable fault injection for chaos drills and tests.

The paper's premise is paying for compute under uncertainty; the serving
stack must therefore survive the *infrastructure* being uncertain too.
This module lets any tagged call site — a pool worker, a Monte-Carlo
chunk, a journal append, an HTTP request — be made to raise, hang past a
deadline, or return late, without touching the call site's logic:

    from repro.resilience import faults

    faults.fire("pool.worker")          # no-op unless a plan is installed

A site is marked one way only, by a ``faults.fire("<site>")`` call, and
every site is listed in :func:`known_sites`; a plan naming any other site
is rejected.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s, each matching
exactly one site with a trigger probability, an optional trigger budget,
and a mode:

* ``error`` — raise :class:`InjectedFault`;
* ``hang``  — sleep ``seconds`` (default 30, long enough to blow any
  per-task timeout) and then continue;
* ``delay`` — sleep ``seconds`` (default 0.05) and return late.

Plans are seeded: every rule draws its trigger decisions from its own
``SeedSequence``-spawned stream (:func:`repro.utils.rng.spawn_generators`),
so a drill replays identically under serial execution and rule-for-rule
identically under threads.

Activation:

* **environment** — ``REPRO_FAULTS=<plan>`` where ``<plan>`` is a JSON
  plan document, inline
  (``'{"seed": 7, "faults": [{"site": "pool.worker", "rate": 0.3}]}'``)
  or the path of a file holding one.  The environment is read once,
  lazily, on the first :func:`fire` — which is how process-pool children
  pick a drill up.  ``repro-serve`` calls :func:`get_plan` at boot, so a
  malformed plan stops the server before it binds;
* **programmatic** — :func:`install` / :func:`uninstall`, or the
  :func:`installed` context manager in tests.

With no plan installed the whole machinery is one module-global ``None``
check per call site.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.observability import metrics
from repro.observability import names
from repro.utils.rng import spawn_generators

__all__ = [
    "ENV_VAR",
    "MODES",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "known_sites",
    "fire",
    "install",
    "uninstall",
    "installed",
    "get_plan",
    "reset_env_cache",
]

ENV_VAR = "REPRO_FAULTS"

MODES = ("error", "hang", "delay")

_DEFAULT_SECONDS = {"error": 0.0, "hang": 30.0, "delay": 0.05}


class InjectedFault(RuntimeError):
    """Raised at an injection point when the active plan says "fail here"."""

    def __init__(self, site: str, rule: "FaultRule") -> None:
        super().__init__(f"injected fault at {site!r} ({rule.describe()})")
        self.site = site
        self.rule = rule

    def __reduce__(self) -> tuple:
        # Exceptions unpickle as ``cls(*args)`` with args = (message,) by
        # default, which would crash the two-argument constructor — and a
        # fault injected inside a *process-pool* worker travels back to the
        # driver by pickle.  Rebuild from (site, rule) instead so chaos
        # drills against the process backend surface the real fault, not a
        # BrokenProcessPool unpickling error.
        return (type(self), (self.site, self.rule))


# ----------------------------------------------------------------------
# Site registry (documentation + typo guard for plan specs)
# ----------------------------------------------------------------------
#: Every ``faults.fire`` site in the library -> what it guards.
_SITES: Dict[str, str] = {
    "pool.worker": "every task attempt on an execution backend",
    "mc.chunk": "one parallel Monte-Carlo chunk costing task",
    "server.request": "an admitted repro-serve POST that computes, on the pool thread that computes it",
    "shard.journal.append": "one shard journal record write (pre-write)",
    "shard.compact": "shard journal compaction (pre-publish of the base)",
    "shard.rpc": "one router -> shard RPC attempt (client side)",
}


def known_sites() -> Dict[str, str]:
    """Copy of every known ``site -> description``."""
    return dict(_SITES)


# ----------------------------------------------------------------------
# Rules and plans
# ----------------------------------------------------------------------
@dataclass
class FaultRule:
    """One injection rule: where, what, how often, how many times."""

    site: str
    mode: str
    rate: float = 1.0
    seconds: Optional[float] = None
    max_triggers: Optional[int] = None
    triggered: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; known: {MODES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.seconds is None:
            self.seconds = _DEFAULT_SECONDS[self.mode]
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ValueError(
                f"max_triggers must be >= 1 (or None), got {self.max_triggers}"
            )

    def matches(self, site: str) -> bool:
        return site == self.site

    def describe(self) -> str:
        parts = [f"mode={self.mode}", f"rate={self.rate}"]
        if self.mode != "error":
            parts.append(f"seconds={self.seconds}")
        if self.max_triggers is not None:
            parts.append(f"max_triggers={self.max_triggers}")
        return ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "mode": self.mode,
            "rate": self.rate,
            "seconds": self.seconds,
            "max_triggers": self.max_triggers,
            "triggered": self.triggered,
        }


class FaultPlan:
    """A seeded set of fault rules, installable as the process-wide plan."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        rules = list(rules)
        for rule in rules:
            if rule.site not in _SITES:
                raise ValueError(
                    f"fault rule targets unknown site {rule.site!r}; "
                    f"known sites: {sorted(_SITES)}"
                )
        self.seed = int(seed)
        self._rules = rules
        self._sleep = sleep
        self._generators = spawn_generators(self.seed, len(rules))
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Build a plan from a JSON plan document, inline or in a file.

        ``spec`` starting with ``{`` is the document itself; anything else
        is the path of a file holding it.  Every malformed document raises
        ``ValueError`` (a missing file, ``OSError``).
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty fault spec")
        if not spec.startswith("{"):
            with open(spec, "r", encoding="utf-8") as fh:
                spec = fh.read()
        doc = json.loads(spec)
        if not isinstance(doc, dict):
            raise ValueError("fault plan document must be a JSON object")
        try:
            # A rule's keys are FaultRule's fields: an unknown or misspelt
            # key is refused, never ignored into an unbounded drill.
            rules = [
                FaultRule(**{"mode": "error", **entry})
                for entry in doc.get("faults", [])
            ]
            return cls(rules, seed=int(doc.get("seed", 0)))
        except TypeError as exc:  # no site, an unknown key, a null number
            raise ValueError(f"bad fault plan: {exc}") from None

    # -- introspection --------------------------------------------------
    @property
    def rules(self) -> List[FaultRule]:
        return list(self._rules)

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [rule.to_dict() for rule in self._rules],
                "total_triggered": sum(r.triggered for r in self._rules),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan seed={self.seed} rules={len(self._rules)}>"

    # -- firing ---------------------------------------------------------
    def fire(self, site: str) -> None:
        """Run ``site`` through the matching rules (called by :func:`fire`).

        The first ``error`` rule that triggers ends the walk: the rules
        after it neither draw from their RNG nor spend their budget, so
        every counted trigger takes effect and ``total_triggered`` equals
        ``resilience.faults_injected``.  The trigger decision (RNG draw +
        budget bookkeeping) happens under the plan lock; the fault
        *effect* — sleeping or raising — happens outside it, so a hung
        site never blocks other injection points.
        """
        to_apply: List[FaultRule] = []
        with self._lock:
            for rule, rng in zip(self._rules, self._generators):
                if not rule.matches(site):
                    continue
                if (
                    rule.max_triggers is not None
                    and rule.triggered >= rule.max_triggers
                ):
                    continue
                if rule.rate < 1.0 and rng.uniform() >= rule.rate:
                    continue
                rule.triggered += 1
                to_apply.append(rule)
                if rule.mode == "error":
                    break
        for rule in to_apply:
            metrics.inc(names.RESILIENCE_FAULTS_INJECTED)
            metrics.inc(f"{names.RESILIENCE_FAULT_PREFIX}{site}")
            if rule.mode == "error":
                raise InjectedFault(site, rule)
            self._sleep(rule.seconds or 0.0)


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_STATE_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None
_ENV_LOADED = False


def get_plan() -> Optional[FaultPlan]:
    """The active plan, lazily bootstrapping from ``REPRO_FAULTS`` once."""
    global _PLAN, _ENV_LOADED
    if _PLAN is not None:
        return _PLAN
    if not _ENV_LOADED:
        with _STATE_LOCK:
            if not _ENV_LOADED:
                spec = os.environ.get(ENV_VAR)
                if spec:
                    _PLAN = FaultPlan.from_spec(spec)
                _ENV_LOADED = True
    return _PLAN


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan (returns it)."""
    global _PLAN, _ENV_LOADED
    with _STATE_LOCK:
        _PLAN = plan
        _ENV_LOADED = True  # an explicit plan overrides the environment
    return plan


def uninstall() -> None:
    """Deactivate fault injection (and forget any env-sourced plan)."""
    global _PLAN
    with _STATE_LOCK:
        _PLAN = None


def reset_env_cache() -> None:
    """Forget the cached ``REPRO_FAULTS`` read (tests that monkeypatch env)."""
    global _PLAN, _ENV_LOADED
    with _STATE_LOCK:
        _PLAN = None
        _ENV_LOADED = False


@contextlib.contextmanager
def installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of a ``with`` block (tests)."""
    global _PLAN, _ENV_LOADED
    with _STATE_LOCK:
        previous, previous_loaded = _PLAN, _ENV_LOADED
        _PLAN, _ENV_LOADED = plan, True
    try:
        yield plan
    finally:
        with _STATE_LOCK:
            _PLAN, _ENV_LOADED = previous, previous_loaded


# ----------------------------------------------------------------------
# Call-site API
# ----------------------------------------------------------------------
def fire(site: str) -> None:
    """Injection point: apply the active plan's matching rules to ``site``.

    This is the hot-path entry — with no plan installed it is a global
    read, an ``is None`` check, and a return.
    """
    plan = _PLAN if _ENV_LOADED else get_plan()
    if plan is not None:
        plan.fire(site)
