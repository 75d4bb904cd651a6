"""Call-graph construction: module naming, resolution, edges, stats."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import load_sources, module_name_for
from repro.analysis.graph import build_graph
from repro.analysis.graph.symbols import collect_imports, resolve
from repro.resilience import faults

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def graph_of(tmp_path):
    def build(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        sources = load_sources([str(tmp_path)])
        return build_graph([s for s in sources if s.tree is not None])

    return build


def _qname(graph, suffix):
    hits = [q for q in graph.functions if q.endswith(suffix)]
    assert len(hits) == 1, f"{suffix!r}: {hits}"
    return hits[0]


def _edges(graph, caller_suffix):
    caller = _qname(graph, caller_suffix)
    return {
        (e.callee.rsplit(".", 2)[-2] + "." + e.callee.rsplit(".", 1)[-1], e.kind)
        for e in graph.out_edges.get(caller, ())
    }


class TestModuleNaming:
    def test_package_chain_strips_non_package_roots(self):
        packages = {("src", "repro"), ("src", "repro", "service")}
        assert (
            module_name_for("src/repro/service/planner.py", packages)
            == "repro.service.planner"
        )
        assert module_name_for("src/repro/__init__.py", packages) == "repro"

    def test_bare_tree_falls_back_to_path_derived(self):
        assert module_name_for("pkg/mod.py", set()) == "pkg.mod"

    def test_bare_tree_is_named_below_the_scanned_root(self, tmp_path):
        # tmp_path lies outside the working directory, so its display path
        # is absolute; none of it may leak into the module name.
        (tmp_path / "service").mkdir()
        (tmp_path / "service" / "mod.py").write_text("X = 1\n")
        (source,) = load_sources([str(tmp_path)])
        assert source.path.startswith("/")
        assert source.module == "service.mod"
        root = tuple(Path(tmp_path).parts)
        assert module_name_for(source.path, set(), root) == "service.mod"


class TestResolution:
    def test_module_and_import_resolution(self, graph_of):
        g = graph_of(
            {
                "pkg/a.py": """
                from pkg.b import helper

                def top():
                    helper()
                    local()

                def local():
                    pass
                """,
                "pkg/b.py": """
                def helper():
                    pass
                """,
            }
        )
        top = _qname(g, ".a.top")
        callees = {e.callee.rsplit(".", 1)[-1] for e in g.out_edges[top]}
        assert callees == {"helper", "local"}
        assert all(e.kind == "direct" for e in g.out_edges[top])

    def test_self_method_and_cha(self, graph_of):
        g = graph_of(
            {
                "pkg/c.py": """
                class Worker:
                    def run(self):
                        self.step()
                        self.backend.map(job)

                    def step(self):
                        pass

                class Pool:
                    def map(self, fn):
                        pass
                """,
            }
        )
        run = _qname(g, "Worker.run")
        kinds = {(e.callee.rsplit(".", 1)[-1], e.kind) for e in g.out_edges[run]}
        assert ("step", "direct") in kinds
        # `self.backend.map` is untyped: name-based CHA reaches Pool.map.
        assert ("map", "cha") in kinds

    def test_callback_ref_edges(self, graph_of):
        g = graph_of(
            {
                "pkg/d.py": """
                def runner(rungs):
                    for name, fn in rungs:
                        fn()

                def task():
                    pass

                def main():
                    runner([("t", task)])
                """,
            }
        )
        runner = _qname(g, ".d.runner")
        task = _qname(g, ".d.task")
        # The reference `task` passed into runner() becomes runner -> task.
        assert any(
            e.callee == task and e.kind == "ref"
            for e in g.out_edges.get(runner, ())
        )

    def test_external_and_dynamic_classification(self, graph_of):
        g = graph_of(
            {
                "pkg/e.py": """
                import math

                def f(cb):
                    math.sqrt(4.0)     # external (stdlib)
                    len([1])           # external (builtin)
                    cb()               # dynamic (parameter)
                """,
            }
        )
        s = g.stats
        assert s.n_dynamic == 1
        assert s.n_external == 2
        assert s.resolution_rate == 0.0  # 0 resolved / (0 + 1)

    def test_nested_function_resolution(self, graph_of):
        g = graph_of(
            {
                "pkg/f.py": """
                def outer():
                    def inner():
                        pass
                    inner()
                """,
            }
        )
        outer = _qname(g, ".f.outer")
        assert [e.callee for e in g.out_edges[outer]] == [
            outer + ".<locals>.inner"
        ]


class TestImportResolver:
    def test_relative_imports_resolve_against_the_package(self):
        tree = ast.parse(
            "from ..observability import names\nfrom .keys import plan_key\n"
        )
        assert collect_imports(tree, "repro.service.planner") == {
            "names": "repro.observability.names",
            "plan_key": "repro.service.keys.plan_key",
        }

    def test_relative_imports_in_a_package_init(self):
        tree = ast.parse("from .x import y\nfrom .. import names\n")
        assert collect_imports(tree, "repro.service", is_package=True) == {
            "y": "repro.service.x.y",
            "names": "repro.names",
        }
        # The same import in the module repro.service (not a package).
        assert collect_imports(tree, "repro.service")["y"] == "repro.x.y"

    def test_package_init_calls_resolve_into_the_package(self, graph_of):
        g = graph_of(
            {
                "pkg/__init__.py": """
                from .helpers import helper

                def entry():
                    helper()
                """,
                "pkg/helpers.py": """
                def helper():
                    return 1
                """,
            }
        )
        assert _edges(g, "pkg.entry") == {("helpers.helper", "direct")}

    def test_absolute_imports_and_aliases(self):
        tree = ast.parse(
            "import numpy as np\n"
            "import os.path\n"
            "from numpy.random import default_rng as rng\n"
        )
        assert collect_imports(tree, "pkg.mod") == {
            "np": "numpy",
            "os": "os",
            "rng": "numpy.random.default_rng",
        }

    def test_resolve_maps_the_head_through_imports(self):
        imports = {"np": "numpy", "rng": "numpy.random.default_rng"}
        assert resolve(imports, "np.random.rand") == "numpy.random.rand"
        assert resolve(imports, "np") == "numpy"
        assert resolve(imports, "rng") == "numpy.random.default_rng"

    def test_resolve_leaves_an_unimported_head_as_written(self):
        assert resolve({"np": "numpy"}, "metrics.inc") == "metrics.inc"
        assert resolve({}, "helper") == "helper"

    def test_canonical_follows_relative_imports(self, graph_of):
        g = graph_of(
            {
                "pkg/__init__.py": "",
                "pkg/names.py": "PLAN_HITS = 'plan_hits'\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/a.py": """
                from .. import names

                def f():
                    return names.PLAN_HITS
                """,
            }
        )
        assert g.canonical("pkg.sub.a", "names.PLAN_HITS") == "pkg.names.PLAN_HITS"


class TestRootOf:
    CHAIN = {
        "pkg/r.py": """
        def first():
            shared()

        def second():
            shared()
            near()

        def shared():
            deep()

        def deep():
            far()

        def near():
            far()

        def far():
            pass

        def orphan():
            pass
        """,
    }

    def test_roots_map_to_themselves_and_unreached_are_absent(self, graph_of):
        g = graph_of(self.CHAIN)
        first, orphan = _qname(g, ".r.first"), _qname(g, ".r.orphan")
        via = g.root_of([first])
        assert via[first] == first
        assert via[_qname(g, ".r.deep")] == first
        assert orphan not in via
        assert _qname(g, ".r.near") not in via

    def test_first_root_in_order_wins_a_tie(self, graph_of):
        g = graph_of(self.CHAIN)
        first, second = _qname(g, ".r.first"), _qname(g, ".r.second")
        shared = _qname(g, ".r.shared")
        assert g.root_of([first, second])[shared] == first
        assert g.root_of([second, first])[shared] == second

    def test_nearest_root_wins_breadth_first(self, graph_of):
        g = graph_of(self.CHAIN)
        first, second = _qname(g, ".r.first"), _qname(g, ".r.second")
        # first reaches far in 3 hops (shared, deep, far); second in 2 (near, far).
        assert g.root_of([first, second])[_qname(g, ".r.far")] == second

    def test_skip_common_cha_drops_common_method_edges(self, graph_of):
        g = graph_of(
            {
                "pkg/c.py": """
                class Store:
                    def get(self, key):
                        pass

                    def fetch(self, key):
                        pass

                def use(thing):
                    thing.get(1)
                    thing.fetch(2)
                """,
            }
        )
        use = _qname(g, ".c.use")
        get, fetch = _qname(g, "Store.get"), _qname(g, "Store.fetch")
        assert {get, fetch} <= set(g.root_of([use]))
        precise = g.root_of([use], skip_common_cha=True)
        assert fetch in precise
        assert get not in precise


class TestGraphJson:
    def test_schema(self, graph_of):
        g = graph_of({"pkg/g.py": "def f():\n    pass\n"})
        doc = g.to_json()
        assert doc["version"] == 2
        assert set(doc["stats"]) >= {
            "modules",
            "functions",
            "call_sites",
            "resolved",
            "external",
            "dynamic",
            "resolution_rate",
        }
        assert isinstance(doc["functions"], list)
        assert isinstance(doc["edges"], list)


class TestSelfResolution:
    def test_repo_resolution_rate_at_least_90_percent(self):
        """Acceptance: >= 90% of intra-project call sites resolve on this
        repository itself (measured, not assumed)."""
        sources = load_sources([str(REPO_ROOT / "src")])
        g = build_graph([s for s in sources if s.tree is not None])
        assert g.stats.n_call_sites > 4000
        assert g.stats.resolution_rate >= 0.90

    def test_repo_key_edges_exist(self):
        """Spot-check load-bearing edges the RS2xx rules depend on."""
        sources = load_sources([str(REPO_ROOT / "src")])
        g = build_graph([s for s in sources if s.tree is not None])
        # backend.map -> MC chunk task (callback edge used by RS201/RS203).
        chunk = "repro.simulation.monte_carlo._sample_and_cost_chunk"
        assert any(
            e.kind == "ref" and ".pool." in e.caller
            for e in g.in_edges.get(chunk, ())
        )
        # run_ladder invokes the planner's rung closures.
        ladder = "repro.resilience.degradation.run_ladder"
        assert any(
            e.kind == "ref" and ".<locals>." in e.callee
            for e in g.out_edges.get(ladder, ())
        )

    def test_repo_fault_sites_are_all_known(self):
        """Every ``faults.fire`` site in ``src/`` is in the site table, so a
        plan can target it."""
        sources = load_sources([str(REPO_ROOT / "src")])
        g = build_graph([s for s in sources if s.tree is not None])
        sites = {
            site.site for fs in g.functions.values() for site in fs.fault_sites
        }
        assert sites == set(faults.known_sites())


def test_only_faults_fire_calls_are_fault_sites(graph_of):
    g = graph_of(
        {
            "pkg/f.py": """
            from repro.resilience import faults

            def f(pool):
                faults.fire("pool.worker")
                pool.fire("not.a.site")
                faults.check("mc.chunk")
            """,
        }
    )
    assert [s.site for s in g.functions[_qname(g, ".f.f")].fault_sites] == [
        "pool.worker"
    ]
