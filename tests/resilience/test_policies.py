"""Retry/backoff policies and wall-clock deadlines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience.policies import Deadline, RetryPolicy


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestDeadline:
    def test_expires_when_the_budget_runs_out(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert not deadline.expired()
        clock.advance(9.5)
        assert not deadline.expired()
        clock.advance(0.5)
        assert deadline.expired()

    def test_zero_budget_is_already_expired(self):
        assert Deadline(0.0, clock=FakeClock()).expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Deadline(-1.0)


class TestRetryPolicy:
    def test_zero_base_delay_never_sleeps(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, sleep=slept.append)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        policy.backoff(1)
        policy.backoff(2)
        assert slept == []  # zero base delay: never sleeps

    def test_delay_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=42)
        delays = [policy.delay(a) for a in (1, 2, 3, 4, 5)]
        caps = [0.1, 0.2, 0.4, 0.8, 1.0]
        for delay, cap in zip(delays, caps):
            assert 0.0 <= delay <= cap
        replay = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=42)
        assert delays == [replay.delay(a) for a in (1, 2, 3, 4, 5)]

    def test_delay_is_a_uniform_draw_under_the_doubling_cap(self):
        # delay(a) ~ U[0, min(max_delay, base * 2**(a-1))], drawn from the
        # policy's own seeded generator in call order.
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=7)
        rng = np.random.default_rng(7)
        for attempt in (1, 2, 3, 4, 5, 10):
            cap = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert policy.delay(attempt) == float(rng.uniform(0.0, cap))

    def test_backoff_sleeps_the_seeded_delay(self):
        slept = []
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=3,
                             sleep=slept.append)
        twin = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=3)
        policy.backoff(1)
        policy.backoff(2)
        assert slept == [twin.delay(1), twin.delay(2)]

    def test_sleep_for_honors_server_hint(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        policy.sleep_for(1.25)
        policy.sleep_for(0.0)  # no sleep call for zero
        assert slept == [1.25]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)

    def test_retry_metrics(self, enabled_obs):
        reg, _ = enabled_obs
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        assert policy.should_retry(1)
        policy.backoff(1)
        assert not policy.should_retry(2)
        counters = reg.to_dict()["counters"]
        assert counters["resilience.retries"] == 1
        assert counters["resilience.retry_exhausted"] == 1
