"""Tests for the event queue."""

from __future__ import annotations

import pytest

from repro.runtime import EventKind, EventQueue
from repro.workload import InferenceRequest


def req(code="HT", frame=0):
    return InferenceRequest(code, frame, 0.0, 1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(0.5, EventKind.ARRIVAL, req(frame=1))
        q.push(0.1, EventKind.ARRIVAL, req(frame=2))
        q.push(0.3, EventKind.ARRIVAL, req(frame=3))
        assert [q.pop().time_s for _ in range(3)] == [0.1, 0.3, 0.5]

    def test_fifo_for_simultaneous_events(self):
        q = EventQueue()
        first, second = req(frame=1), req(frame=2)
        q.push(0.2, EventKind.ARRIVAL, first)
        q.push(0.2, EventKind.ARRIVAL, second)
        assert q.pop().request is first
        assert q.pop().request is second

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, EventKind.ARRIVAL, req())
        assert q and len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError, match="empty"):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="event time"):
            EventQueue().push(-0.1, EventKind.ARRIVAL, req())

    def test_nan_time_rejected(self):
        # NaN compares False against everything, so a NaN entry would
        # silently corrupt the heap order instead of failing.
        q = EventQueue()
        with pytest.raises(ValueError, match="event time"):
            q.push(float("nan"), EventKind.ARRIVAL, req())
        assert not q

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time_s is None
        q.push(0.7, EventKind.ARRIVAL, req())
        assert q.next_time_s == 0.7

    def test_completion_carries_engine(self):
        q = EventQueue()
        q.push(0.4, EventKind.COMPLETION, req(), sub_index=2)
        event = q.pop()
        assert event.kind is EventKind.COMPLETION
        assert event.sub_index == 2
