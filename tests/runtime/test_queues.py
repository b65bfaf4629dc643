"""Tests for the waiting queue and the dependency tracker."""

from __future__ import annotations

import pytest

from repro.runtime import DependencyTracker, WaitingQueue, WorkItem
from repro.workload import InferenceRequest, get_scenario


def req(code="HT", frame=0, t=0.0):
    return InferenceRequest(code, frame, t, t + 0.033)


def item(code="HT", frame=0, t=0.0, session=0):
    return WorkItem(request=req(code, frame, t), session_id=session)


class TestWaitingQueue:
    def test_offer_and_read(self):
        q = WaitingQueue()
        a = item()
        assert q.offer(a) is None
        assert list(q) == [a]
        assert q[0] is a
        assert len(q) == 1 and bool(q)

    def test_kept_in_dispatch_order(self):
        # Sorted by (request_time_s, session_id, model_code), regardless
        # of offer order.
        q = WaitingQueue()
        late = item("HT", t=0.5, session=0)
        early_hi = item("ES", t=0.1, session=1)
        early_lo = item("OD", t=0.1, session=0)
        for work in (late, early_hi, early_lo):
            q.offer(work)
        assert list(q) == [early_lo, early_hi, late]

    def test_stale_frame_dropped_per_session_and_model(self):
        q = WaitingQueue()
        old = item("HT", frame=0, t=0.0, session=1)
        new = item("HT", frame=1, t=0.033, session=1)
        other_session = item("HT", frame=0, t=0.0, session=2)
        q.offer(old)
        q.offer(other_session)
        displaced = q.offer(new)
        assert displaced is old
        assert old.request.dropped
        assert q.dropped == [old.request]
        # The same model in a different session is untouched.
        assert list(q) == [other_session, new]

    def test_different_models_coexist(self):
        # Freshness is per (session, model): another model of the same
        # session never displaces the waiting frame.
        q = WaitingQueue()
        a, b = item("HT", session=0), item("ES", session=0)
        q.offer(a)
        assert q.offer(b) is None
        assert len(q) == 2
        assert q.dropped == []

    def test_take_removes(self):
        q = WaitingQueue()
        a, b = item("HT", session=0), item("ES", session=0)
        q.offer(a)
        q.offer(b)
        q.take(a)
        assert list(q) == [b]

    def test_take_unknown_item_raises(self):
        q = WaitingQueue()
        a = item("HT", frame=0)
        q.offer(a)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(item("HT", frame=1))

    def test_take_displaced_item_raises(self):
        # After a fresh frame displaces it, the stale item is gone.
        q = WaitingQueue()
        old, new = item("HT", frame=0), item("HT", frame=1, t=0.033)
        q.offer(old)
        q.offer(new)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(old)

    def test_equal_sort_keys_coexist(self):
        # Identical (t, session, model) keys cannot collide in practice
        # (one waiting frame per session/model), but bisection must still
        # locate the right identity among equal keys.
        q = WaitingQueue()
        a = item("HT", t=0.2, session=0)
        b = item("HT", t=0.2, session=1)
        c = item("HT", t=0.2, session=2)
        for work in (a, b, c):
            q.offer(work)
        q.take(b)
        assert list(q) == [a, c]


class TestDependencyTracker:
    def test_downstream_of_upstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        deps = tracker.downstream_of("ES")
        assert [d.downstream for d in deps] == ["GE"]

    def test_no_downstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        assert tracker.downstream_of("HT") == []
