"""Tracing layer: span nesting, the sink, events, tree rendering."""

from repro import observability as obs


class TestSpans:
    def test_disabled_yields_none(self, isolated_obs):
        with obs.span("x") as sp:
            assert sp is None

    def test_root_span_lands_in_sink(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root", key="v"):
            pass
        assert [s.name for s in sink.spans] == ["root"]
        assert sink.spans[0].attrs == {"key": "v"}
        assert sink.spans[0].duration >= 0.0

    def test_nesting_builds_a_tree(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root"):
            with obs.span("a"):
                with obs.span("a1"):
                    pass
            with obs.span("b"):
                pass
        (root,) = sink.spans
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_current_span_tracks_innermost(self, enabled_obs):
        assert obs.current_span() is None
        with obs.span("outer") as outer:
            assert obs.current_span() is outer
            with obs.span("inner") as inner:
                assert obs.current_span() is inner
            assert obs.current_span() is outer
        assert obs.current_span() is None

    def test_set_attribute_after_open(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root") as sp:
            sp.set("iterations", 7)
        assert sink.spans[0].attrs["iterations"] == 7

    def test_children_attach_even_when_body_raises(self, enabled_obs):
        _, sink = enabled_obs
        try:
            with obs.span("root"):
                with obs.span("child"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        (root,) = sink.spans
        assert [c.name for c in root.children] == ["child"]

    def test_self_time_excludes_children(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root"):
            with obs.span("work"):
                pass
            with obs.span("work"):
                pass
        (root,) = sink.spans
        assert root.self_time == max(
            0.0, root.duration - sum(c.duration for c in root.children)
        )
        assert root.self_time <= root.duration


class TestEvents:
    def test_record_event_attaches_to_open_span(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root"):
            obs.record_event("attempt", duration=0.25, index=0, outcome="failure")
        (root,) = sink.spans
        (event,) = root.children
        assert event.name == "attempt"
        assert event.duration == 0.25
        assert event.attrs["outcome"] == "failure"

    def test_record_event_without_parent_goes_to_sink(self, enabled_obs):
        _, sink = enabled_obs
        obs.record_event("standalone")
        assert [s.name for s in sink.spans] == ["standalone"]

    def test_disabled_event_is_noop(self, isolated_obs):
        _, sink = isolated_obs
        assert obs.record_event("nope") is None
        assert sink.spans == []


class TestSinks:
    def test_ring_buffer_caps_capacity(self, enabled_obs):
        sink = obs.RingBufferSink(capacity=2)
        old = obs.set_sink(sink)
        try:
            for i in range(4):
                with obs.span(f"s{i}"):
                    pass
        finally:
            obs.set_sink(old)
        assert [s.name for s in sink.spans] == ["s2", "s3"]


class TestFormatting:
    def test_span_tree_lists_every_span(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root", strategy="bf"):
            with obs.span("child"):
                pass
        text = obs.format_span_tree(sink.spans[0])
        assert "root" in text and "child" in text
        assert "strategy=bf" in text
        assert "100.0%" in text

    def test_min_duration_elides_fast_children(self, enabled_obs):
        _, sink = enabled_obs
        with obs.span("root"):
            with obs.span("blink"):
                pass
        text = obs.format_span_tree(sink.spans[0], min_duration=10.0)
        assert "blink" not in text
        assert "elided" in text
