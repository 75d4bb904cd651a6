"""Profiling hooks: the @profiled decorator and its switches."""

from repro import observability as obs
from repro.observability import profiled


@profiled
def _square(x):
    return x * x


@profiled(name="custom.label")
def _cube(x):
    return x**3


class TestProfiled:
    def test_transparent_when_off(self, isolated_obs):
        registry, _ = isolated_obs
        assert _square(3) == 9
        assert registry.timers == {}

    def test_enabled_without_profiling_stays_off(self, enabled_obs):
        registry, _ = enabled_obs
        assert _square(3) == 9
        assert registry.timers == {}

    def test_records_timer_and_span_when_profiling(self, isolated_obs):
        registry, sink = isolated_obs
        obs.enable(profiling=True)
        assert _square(4) == 16
        name = f"profile.{_square.__wrapped__.__module__.rsplit('.', 1)[-1]}._square"
        assert registry.timers[name].count == 1
        assert [s.name for s in sink.spans] == [name]

    def test_custom_label(self, isolated_obs):
        registry, _ = isolated_obs
        obs.enable(profiling=True)
        assert _cube(2) == 8
        assert registry.timers["profile.custom.label"].count == 1

    def test_wrapped_attribute_preserved(self):
        assert _square.__wrapped__(5) == 25
        assert _square.__name__ == "_square"

    def test_instrumented_hot_paths_record_under_profiling(self, isolated_obs):
        registry, _ = isolated_obs
        obs.enable(profiling=True)

        from repro import CostModel, LogNormal
        from repro.core.sequence import ReservationSequence, constant_extender
        from repro.simulation.monte_carlo import costs_for_times

        d = LogNormal(3.0, 0.5)
        seq = ReservationSequence([d.mean()], extend=constant_extender(d.mean()))
        costs_for_times(seq, d.rvs(100, seed=0), CostModel.reservation_only())
        assert registry.timers["profile.mc.costs_for_times"].count == 1


class TestEnvSwitches:
    def test_repro_profile_env(self, monkeypatch):
        from repro.observability import _state

        monkeypatch.setenv("REPRO_PROFILE", "1")
        fresh = _state._State()
        assert fresh.profiling and fresh.enabled

    def test_repro_observe_env(self, monkeypatch):
        from repro.observability import _state

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_OBSERVE", "1")
        fresh = _state._State()
        assert fresh.enabled and not fresh.profiling

    def test_falsy_env_values_stay_off(self, monkeypatch):
        from repro.observability import _state

        for value in ("0", "false", "off", ""):
            monkeypatch.setenv("REPRO_OBSERVE", value)
            monkeypatch.delenv("REPRO_PROFILE", raising=False)
            assert not _state._State().enabled
