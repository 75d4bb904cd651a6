"""Edge cases of the online session protocol and its attempt trace."""

import pytest

from repro import CostModel
from repro import observability as obs
from repro.core.sequence import ReservationSequence, constant_extender
from repro.runtime.session import (
    ReservationSession,
    SessionError,
    execute,
)


def _session(values=(1.0, 2.0, 4.0), alpha=1.0, beta=0.0, gamma=0.0):
    seq = ReservationSequence(list(values), extend=constant_extender(values[-1]))
    return ReservationSession(seq, CostModel(alpha=alpha, beta=beta, gamma=gamma))


class TestLastFailedLength:
    def test_zero_before_any_failure(self):
        session = _session()
        assert session.last_failed_length == 0.0
        session.next_request()
        assert session.last_failed_length == 0.0  # pending != failed

    def test_tracks_largest_failure_after_mixed_outcomes(self):
        session = _session(values=(1.0, 3.0, 9.0))
        session.next_request()
        session.report_failure()
        assert session.last_failed_length == 1.0
        session.next_request()
        session.report_failure()
        assert session.last_failed_length == 3.0
        session.next_request()
        session.report_success(5.0)
        # Success doesn't erase the information state.
        assert session.last_failed_length == 3.0


class TestProtocolViolations:
    def test_double_report_raises(self):
        session = _session()
        session.next_request()
        session.report_failure()
        with pytest.raises(SessionError, match="no outstanding request"):
            session.report_failure()

    def test_report_success_without_request_raises(self):
        session = _session()
        with pytest.raises(SessionError, match="no outstanding request"):
            session.report_success(0.5)

    def test_next_request_after_completion_raises(self):
        session = _session()
        session.next_request()
        session.report_success(0.5)
        assert session.is_done
        with pytest.raises(SessionError, match="already completed"):
            session.next_request()

    def test_execute_raises_when_job_exceeds_max_attempts(self):
        # Constant extender at 1.0 never covers a 10-second job.
        seq = ReservationSequence([1.0], extend=constant_extender(1.0))
        session = ReservationSession(seq, CostModel.reservation_only())
        with pytest.raises(RuntimeError, match="not completed within 3 attempts"):
            execute(session, 10.0, max_attempts=3)
        assert session.n_attempts == 3
        assert not session.is_done


class TestTrace:
    def test_trace_entries_are_plain_dicts_with_running_cost(self):
        session = _session(values=(1.0, 2.0, 4.0), alpha=1.0, gamma=0.5)
        execute(session, 1.5)
        trace = session.trace
        assert [t["index"] for t in trace] == [0, 1]
        assert [t["outcome"] for t in trace] == ["failure", "success"]
        assert [t["requested"] for t in trace] == [1.0, 2.0]
        # alpha*1 + gamma, then alpha*2 + gamma on top.
        assert trace[0]["cumulative_cost"] == pytest.approx(1.5)
        assert trace[1]["cumulative_cost"] == pytest.approx(4.0)
        assert trace[1]["cumulative_cost"] == pytest.approx(session.total_cost)
        assert all(isinstance(t, dict) for t in trace)

    def test_trace_empty_before_first_report(self):
        session = _session()
        assert session.trace == []
        session.next_request()
        assert session.trace == []

    def test_each_attempt_emits_one_span(self, enabled_obs):
        registry, sink = enabled_obs
        session = _session(values=(1.0, 2.0, 4.0))
        execute(session, 3.0)
        events = [s for s in sink.spans if s.name == "session.attempt"]
        assert len(events) == 3
        assert [e.attrs["outcome"] for e in events] == [
            "failure",
            "failure",
            "success",
        ]
        assert [e.attrs["index"] for e in events] == [0, 1, 2]
        assert events[-1].attrs["cumulative_cost"] == pytest.approx(
            session.total_cost
        )
        assert registry.counter("session.attempts").value == 3
        assert registry.counter("session.failures").value == 2
        assert registry.counter("session.successes").value == 1

    def test_no_spans_recorded_when_disabled(self, isolated_obs):
        _, sink = isolated_obs
        assert not obs.is_enabled()
        execute(_session(), 1.5)
        assert sink.spans == []
