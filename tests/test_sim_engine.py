"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Event, Simulator


class TestScheduling:
    def test_call_at_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_at(30.0, lambda: order.append("c"))
        sim.call_at(10.0, lambda: order.append("a"))
        sim.call_at(20.0, lambda: order.append("b"))
        sim.drain()
        assert order == ["a", "b", "c"]

    def test_call_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.call_at(100.0, lambda: sim.call_after(5.0, lambda: seen.append(sim.now)))
        sim.drain()
        assert seen == [105.0]

    def test_same_time_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_at(7.0, lambda i=i: order.append(i))
        sim.drain()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_same_time_ties(self):
        sim = Simulator()
        order = []
        sim.call_at(7.0, lambda: order.append("low"), priority=10)
        sim.call_at(7.0, lambda: order.append("high"), priority=-10)
        sim.drain()
        assert order == ["high", "low"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.drain()
        with pytest.raises(ValueError):
            sim.call_at(5.0, lambda: None)

    def test_arming_in_the_past_raises(self):
        sim = Simulator()
        event = Event(sim, lambda: None)
        sim.arm(event, 10.0)
        sim.drain()
        with pytest.raises(ValueError):
            sim.arm(event, 5.0)
        assert event.entry is None and sim.pending_count() == 0

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(10.0, lambda: fired.append(1))
        handle.cancel()
        sim.drain()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.call_at(10.0, lambda: None)
        drop = sim.call_at(20.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert not keep.cancelled

    def test_peek_next_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.call_at(10.0, lambda: None)
        sim.call_at(20.0, lambda: None)
        first.cancel()
        assert sim.peek_next_time() == 20.0

    def test_cancel_burst_keeps_surviving_events(self):
        # A mass-cancel takes its entries out of the heap; the
        # surviving events must still fire, in order, exactly once.
        sim = Simulator()
        fired = []
        for t in (5, 15, 25):
            sim.call_at(float(t), lambda t=t: fired.append(t))
        doomed = [sim.call_at(1e18 + i, lambda: fired.append(-1))
                  for i in range(100)]
        for handle in doomed:
            handle.cancel()
        assert sim.pending_count() == 3
        sim.drain(max_time=30.0)
        assert fired == [5, 15, 25]

    def test_cancel_inside_callback_is_safe(self):
        # Cancels issued from a callback take effect in the running
        # drain, and events it schedules still run.
        sim = Simulator()
        fired = []
        doomed = [sim.call_at(1e18 + i, lambda: fired.append(-1))
                  for i in range(50)]

        def cancel_all_then_reschedule():
            for handle in doomed:
                handle.cancel()
            sim.call_after(1.0, lambda: fired.append("late"))

        sim.call_at(10.0, cancel_all_then_reschedule)
        assert sim.drain(max_time=20.0) == 2
        assert fired == ["late"]
        assert sim.pending_count() == 0
        assert sim.now == 11.0


class TestRunControl:
    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.call_at(10.0, lambda: fired.append(10))
        sim.call_at(30.0, lambda: fired.append(30))
        assert sim.drain(max_time=20.0) == 1
        assert fired == [10]
        assert sim.now == 10.0  # the last event run, not the deadline
        assert sim.pending_count() == 1

    def test_run_until_includes_events_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.call_at(20.0, lambda: fired.append(20))
        sim.drain(max_time=20.0)
        assert fired == [20]
        assert sim.now == 20.0

    def test_drain_runs_nothing_when_empty(self):
        sim = Simulator()
        assert sim.drain() == 0
        assert sim.drain(max_time=55.0) == 0
        assert sim.now == 0.0

    def test_drain_stops_on_each_condition_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        for t in (10.0, 20.0, 30.0, 40.0):
            sim.call_at(t, lambda t=t: fired.append(t))
        sim.call_at(15.0, lambda: fired.append(-1)).cancel()
        assert sim.drain(lambda: len(fired) == 1) == 1
        assert sim.drain(max_time=25.0) == 1
        assert sim.now == 20.0  # not advanced to max_time
        assert sim.drain(max_events=1) == 1
        assert sim.drain() == 1
        assert fired == [10.0, 20.0, 30.0, 40.0]
        assert sim.pending_count() == 0

    def test_max_events_bounds_run(self):
        sim = Simulator()

        def reschedule():
            sim.call_after(1.0, reschedule)

        sim.call_after(1.0, reschedule)
        executed = sim.drain(max_events=25)
        assert executed == 25
        assert sim.now == 25.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1,
                    max_size=50))
    def test_events_always_execute_in_nondecreasing_time(self, times):
        sim = Simulator()
        executed = []
        for t in times:
            sim.call_at(t, lambda t=t: executed.append(sim.now))
        sim.drain()
        assert executed == sorted(executed)
        assert len(executed) == len(times)
