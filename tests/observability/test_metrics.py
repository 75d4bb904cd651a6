"""Metrics layer: counters, gauges, histograms, timers, JSON export."""

import json
import math

import pytest

from repro import observability as obs
from repro.observability.metrics import ValueHistogram


class TestCounters:
    def test_inc_and_value(self, enabled_obs):
        registry, _ = enabled_obs
        obs.inc("jobs")
        obs.inc("jobs", 4)
        assert registry.counter("jobs").value == 5

    def test_disabled_is_noop(self, isolated_obs):
        registry, _ = isolated_obs
        obs.inc("jobs", 100)
        assert registry.counter("jobs").value == 0

    def test_json_renders_integer_counters_as_ints(self, enabled_obs):
        registry, _ = enabled_obs
        obs.inc("n", 3)
        obs.inc("frac", 0.5)
        payload = json.loads(registry.to_json())
        assert payload["counters"]["n"] == 3
        assert payload["counters"]["frac"] == 0.5


class TestGauges:
    def test_tracks_last_min_max(self, enabled_obs):
        registry, _ = enabled_obs
        for v in (3.0, 1.0, 7.0):
            obs.set_gauge("depth", v)
        g = registry.gauge("depth")
        assert (g.value, g.min, g.max, g.n_sets) == (7.0, 1.0, 7.0, 3)

    def test_unset_gauge_serializes_as_null(self, enabled_obs):
        registry, _ = enabled_obs
        registry.gauge("never_set")
        assert registry.to_dict()["gauges"]["never_set"]["value"] is None


class TestHistograms:
    def test_summary_fields(self, enabled_obs):
        registry, _ = enabled_obs
        for v in range(1, 101):
            obs.observe("queue", float(v))
        h = registry.to_dict()["histograms"]["queue"]
        assert h["count"] == 100
        assert h["min"] == 1.0 and h["max"] == 100.0
        assert h["p50"] == pytest.approx(50.0, abs=1.0)
        assert h["p95"] == pytest.approx(95.0, abs=1.0)
        assert h["p99"] == pytest.approx(99.0, abs=1.0)

    def test_nearest_rank_summary_on_a_known_window(self):
        h = ValueHistogram("x", unit="ms")
        values = [float(v) for v in range(1, 1001)]
        for v in values[::-1]:  # arrival order must not matter
            h.observe(v)
        d = h.to_dict()
        # Nearest rank: the ceil(q/100 * n)-th smallest value.
        assert (d["p50"], d["p95"], d["p99"]) == (500.0, 950.0, 990.0)
        assert [d[f"p{q}"] for q in (50, 95, 99)] == [
            h.percentile(q) for q in (50, 95, 99)
        ]
        assert d["count"] == 1000 and d["total"] == sum(values)
        assert d["mean"] == d["total"] / d["count"] == 500.5
        assert (d["min"], d["max"], d["unit"]) == (1.0, 1000.0, "ms")

    def test_percentiles_cover_only_the_window(self):
        from repro.observability.metrics import HISTOGRAM_WINDOW

        h = ValueHistogram("x")
        n = HISTOGRAM_WINDOW + 1000
        for v in range(n):
            h.observe(float(v))
        d = h.to_dict()
        assert d["min"] == 0.0  # exact over everything observed
        assert d["p50"] == 1000.0 + HISTOGRAM_WINDOW // 2 - 1
        assert d["p99"] == h.percentile(99)

    def test_percentile_of_empty_is_nan(self):
        h = ValueHistogram("x")
        assert math.isnan(h.percentile(50))
        assert h.to_dict() == {"count": 0}

    def test_window_caps_retention_but_not_totals(self, enabled_obs):
        registry, _ = enabled_obs
        h = registry.histogram("big")
        n = 70_000  # beyond HISTOGRAM_WINDOW
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert h.total == pytest.approx(n * (n - 1) / 2)


class TestTimers:
    def test_context_manager_records_seconds(self, enabled_obs):
        registry, _ = enabled_obs
        with obs.timer("work"):
            pass
        t = registry.timers["work"]
        assert t.count == 1
        assert 0.0 <= t.total < 1.0

    def test_disabled_timer_records_nothing(self, isolated_obs):
        registry, _ = isolated_obs
        with obs.timer("work"):
            pass
        assert "work" not in registry.timers

    def test_timer_total_defaults_to_zero(self, isolated_obs):
        registry, _ = isolated_obs
        assert registry.timer_total("nothing") == 0.0


class TestRegistry:
    def test_reset_clears_everything(self, enabled_obs):
        registry, _ = enabled_obs
        obs.inc("a")
        obs.set_gauge("b", 1.0)
        obs.observe("c", 1.0)
        with obs.timer("d"):
            pass
        registry.reset()
        d = registry.to_dict()
        assert d == {"counters": {}, "gauges": {}, "timers": {}, "histograms": {}}

    def test_set_registry_redirects_module_helpers(self, enabled_obs):
        registry, _ = enabled_obs
        other = obs.Registry()
        previous = obs.set_registry(other)
        try:
            obs.inc("x")
            assert other.counter("x").value == 1
            assert registry.counter("x").value == 0
        finally:
            obs.set_registry(previous)

    def test_timer_rows_shape(self, enabled_obs):
        registry, _ = enabled_obs
        with obs.timer("t"):
            pass
        rows = list(registry.timer_rows())
        assert len(rows) == 1
        assert rows[0][0] == "t" and len(rows[0]) == 5

    def test_to_json_is_valid_json(self, enabled_obs):
        registry, _ = enabled_obs
        obs.inc("k", 2)
        assert json.loads(registry.to_json())["counters"]["k"] == 2
