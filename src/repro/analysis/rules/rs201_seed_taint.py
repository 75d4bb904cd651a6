"""RS201 — unseeded or global random number generation.

Every stochastic result in this library (the Eq. 13 Monte-Carlo estimator
above all) is only reproducible if randomness flows through an explicit
seed / :class:`numpy.random.Generator` — the contract documented in
:mod:`repro.utils.rng`.  The bit-identity guarantees (``jobs=1`` equals
``jobs=N`` equals the seed path) hold only if every function between a
seeded entry point and an RNG draw threads the seed through.

The rule checks every function, and module-level code, for two findings:

* an **unseeded draw**: ``np.random.<legacy>`` (NumPy's hidden
  module-global ``RandomState``), any call into the stdlib ``random``
  module (a second hidden global stream), ``default_rng()`` or
  ``default_rng(None)`` (fresh OS entropy that no replay reproduces), or
  a :mod:`repro.utils.rng` helper called without a live seed;
* a **dropped seed**: a call that omits a callee's ``seed=None``-style
  parameter even though seed provenance is in scope at the caller — the
  callee will silently fall back to fresh entropy.

The call graph only adds attribution: a finding in a function reachable
from a seeded Monte-Carlo entry point (``monte_carlo_*``,
``*monte_carlo*`` including ``spot_monte_carlo_cost``, ``batch_*``
kernels — reachability includes callback edges, so rung evaluators
handed to ``run_ladder`` and chunk tasks handed to ``backend.map`` are
covered) names the entry point whose replays it breaks.

``utils/rng.py`` is exempt as the sanctioned seed-plumbing module.
"""

from __future__ import annotations

import fnmatch
from pathlib import PurePosixPath
from typing import Iterator, Set, Tuple

from repro.analysis.finding import Finding
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.symbols import CallSite, FunctionSummary, is_seedish_name
from repro.analysis.rules import register
from repro.analysis.rules.base import GraphRule

__all__ = ["SeedTaintRule", "ENTRY_PATTERNS"]

#: Function-name patterns that define seeded entry points (they must also
#: actually take a seed-like parameter to qualify).
ENTRY_PATTERNS = (
    "monte_carlo_*",
    "*monte_carlo*",
    "batch_*",
)

#: Parameters whose ``=None`` default means "fall back to fresh entropy".
_SEED_PARAM_NAMES = frozenset(
    {"seed", "rng", "generator", "seed_sequence", "ss"}
)

#: Seed-consuming constructors from :mod:`repro.utils.rng` — calling them
#: without a live seed argument defeats their purpose.
_RNG_PLUMBING = frozenset(
    {"as_generator", "spawn_generators", "spawn_seed_sequences"}
)

#: numpy.random attributes that are fine to call: the modern explicit
#: Generator construction surface, not the legacy global-state functions.
_SAFE_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


def _is_entry(fn: FunctionSummary) -> bool:
    if not fn.seedish_params:
        return False
    return any(fnmatch.fnmatch(fn.name, pat) for pat in ENTRY_PATTERNS)


def _is_rng_module(fn: FunctionSummary) -> bool:
    return PurePosixPath(fn.path).parts[-2:] == ("utils", "rng.py")


@register
class SeedTaintRule(GraphRule):
    rule_id = "RS201"
    summary = (
        "unseeded or global RNG use (np.random.*, random.*, argless "
        "default_rng()), or a seed dropped on the way to a draw"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        via = graph.root_of(
            fn.qname for fn in graph.functions.values() if _is_entry(fn)
        )
        code = list(graph.functions.values())
        code += [m.body for m in graph.modules.values() if m.body is not None]
        seen: Set[Tuple[str, int, str]] = set()
        for fn in code:
            if _is_rng_module(fn):
                continue
            entry = via.get(fn.qname)
            where = (
                f" (reachable from seeded entry point `{entry}`)" if entry else ""
            )
            for site in fn.calls:
                for finding in self._check_site(graph, fn, site, where):
                    key = (finding.path, finding.line, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding

    # -- sinks -----------------------------------------------------------
    def _check_site(
        self,
        graph: CallGraph,
        fn: FunctionSummary,
        site: CallSite,
        where: str,
    ) -> Iterator[Finding]:
        dotted = site.dotted
        # Only imported names: a local called ``random`` is not the module.
        if dotted is not None and (
            dotted.partition(".")[0] in graph.modules[fn.module].imports
        ):
            canonical = graph.canonical(fn.module, dotted)
            yield from self._check_rng_sink(fn, site, canonical, where)
        yield from self._check_dropped_seed(graph, fn, site, where)

    def _unseeded_args(self, site: CallSite, fn: FunctionSummary) -> bool:
        """No live seed reaches this call: no arguments at all, only
        ``None``, or only identifiers that carry no taint.  Constant-only
        arguments (``default_rng(12345)``) count as seeded — they are
        reproducible."""
        if site.has_splat:
            return False
        if any(is_seedish_name(kw) for kw in site.keywords):
            return False  # an explicit seed-ish keyword is a thread
        if site.num_args == 0 and not site.keywords:
            return True
        if site.none_args:
            return True
        if site.arg_names and not site.passes_seedish(fn.tainted):
            return True
        return False

    def _check_rng_sink(
        self, fn: FunctionSummary, site: CallSite, canonical: str, where: str
    ) -> Iterator[Finding]:
        tail = canonical.rsplit(".", 1)[-1]
        message = None
        if canonical.startswith("numpy.random.") and tail not in _SAFE_NP_RANDOM:
            message = (
                f"legacy global-state RNG `np.random.{tail}`{where}; thread "
                "an explicit seed through `repro.utils.rng.as_generator` instead"
            )
        elif canonical == "random" or canonical.startswith("random."):
            # Every function shares one hidden global stream, so even
            # `random.seed` is a reproducibility hazard.
            message = (
                f"stdlib `random` call (`{canonical}`){where} draws from a "
                "hidden global stream the seed plumbing never touches; use "
                "a seeded numpy Generator"
            )
        elif canonical == "numpy.random.default_rng" and self._unseeded_args(
            site, fn
        ):
            message = (
                f"`default_rng()` without live seed provenance{where}; it "
                "draws OS entropy, so no replay can reproduce it"
            )
        elif tail in _RNG_PLUMBING and self._unseeded_args(site, fn):
            message = (
                f"`{tail}(...)` called without a live seed{where}; pass the "
                "seed/SeedSequence through"
            )
        if message is not None:
            yield self.graph_finding(fn.path, site.lineno, site.col, message)

    # -- dropped seed ----------------------------------------------------
    def _check_dropped_seed(
        self,
        graph: CallGraph,
        fn: FunctionSummary,
        site: CallSite,
        where: str,
    ) -> Iterator[Finding]:
        if site.has_splat or not fn.tainted:
            return
        if site.passes_seedish(fn.tainted):
            return
        for edge in graph.out_edges.get(fn.qname, ()):
            if edge.site is not site or edge.kind == "ref":
                continue
            callee = graph.functions.get(edge.callee)
            if callee is None:
                continue
            for param in callee.params:
                if (
                    param in _SEED_PARAM_NAMES
                    and callee.param_defaults_none.get(param)
                ):
                    yield self.graph_finding(
                        fn.path,
                        site.lineno,
                        site.col,
                        f"call to `{callee.name}` omits its `{param}` "
                        f"parameter although seed provenance is in scope"
                        f"{where}; the callee defaults to fresh entropy",
                    )
                    break
