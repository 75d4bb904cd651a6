"""Circuit breaker state machine (with an injectable clock)."""

from __future__ import annotations

import pytest

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpen,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(
        failure_threshold=3, recovery_time=5.0, name="test", clock=clock
    )


def trip(breaker):
    for _ in range(breaker.failure_threshold):
        assert breaker.allow()
        breaker.record_failure()


class TestStateMachine:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_success()

    def test_opens_after_consecutive_failures(self, breaker):
        trip(breaker)
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_retry_in_counts_down(self, breaker, clock):
        trip(breaker)
        assert breaker.retry_in() == pytest.approx(5.0)
        clock.advance(3.0)
        assert breaker.retry_in() == pytest.approx(2.0)

    def test_half_opens_after_recovery(self, breaker, clock):
        trip(breaker)
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self, breaker, clock):
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_probe_failure_reopens_and_restarts_clock(self, breaker, clock):
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_in() == pytest.approx(5.0)  # clock restarted

    def test_half_open_limits_concurrent_probes(self, breaker, clock):
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()       # probe slot taken
        assert not breaker.allow()   # second concurrent probe rejected

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=-1.0)


class TestCallWrapper:
    def test_call_raises_circuit_open(self, breaker):
        trip(breaker)
        with pytest.raises(CircuitOpen) as err:
            breaker.call(lambda: "never runs")
        assert err.value.breaker_name == "test"
        assert err.value.retry_in == pytest.approx(5.0)

    def test_call_records_outcomes(self, breaker):
        assert breaker.call(lambda: 42) == 42
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError("x")))
        assert breaker.stats()["failures"] == 1


class TestStatsAndMetrics:
    def test_stats_track_transitions(self, breaker, clock):
        trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        stats = breaker.stats()
        assert stats["state"] == CLOSED
        assert stats["opened"] == 1
        assert stats["half_opens"] == 1
        assert stats["closes"] == 1

    def test_metrics_counted(self, enabled_obs, clock):
        reg, _ = enabled_obs
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=1.0, clock=clock)
        breaker.record_failure()         # -> open
        assert not breaker.allow()       # rejection
        clock.advance(1.0)
        assert breaker.allow()           # -> half-open + probe
        breaker.record_success()         # -> closed
        counters = reg.to_dict()["counters"]
        assert counters["resilience.breaker.opened"] == 1
        assert counters["resilience.breaker.rejections"] == 1
        assert counters["resilience.breaker.half_opens"] == 1
        assert counters["resilience.breaker.closes"] == 1
        assert reg.to_dict()["gauges"]["resilience.breaker.state"]["value"] == 0
