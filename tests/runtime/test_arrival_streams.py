"""Arrival streams are an exact stand-in for per-request arrival pushes.

:meth:`EventQueue.push_arrivals` keeps one heap entry per session phase
instead of one per root frame.  The oracle here is a reference queue
whose ``push_arrivals`` calls ``push`` once per request — the historical
formulation.  Every simulated configuration must pop the identical event
trace (times, sequence numbers, kinds, request identity and fields,
engines, sessions) through both queues and end with identical execution
records and per-session request logs.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.runtime.multisim as multisim
from repro.hardware import build_accelerator
from repro.runtime import MultiScenarioSimulator, make_scheduler
from repro.runtime.events import EventKind, EventQueue
from repro.runtime.multisim import SessionPhase, SessionSpec
from repro.workload import InferenceRequest, churn_windows, get_scenario


def req(t: float, code: str = "HT", frame: int = 0) -> InferenceRequest:
    return InferenceRequest(code, frame, t, t + 0.033)


class _TracingQueue(EventQueue):
    """The production queue, logging a snapshot of every popped event."""

    instances: list[_TracingQueue] = []

    def __init__(self) -> None:
        super().__init__()
        self.trace: list[tuple] = []
        self.max_entries = 0
        _TracingQueue.instances.append(self)

    def pop_fields(self):
        self.max_entries = max(self.max_entries, len(self._heap))
        fields = super().pop_fields()
        time_s, seq, kind, request, sub_index, session_id = fields
        snapshot = None
        if request is not None:
            # Times are mutated later in the run; snapshot them now.
            snapshot = (
                request.request_id, request.model_code,
                request.model_frame, request.request_time_s,
                request.deadline_s,
            )
        self.trace.append(
            (time_s, seq, kind, snapshot, sub_index, session_id)
        )
        return fields


class _ReferenceQueue(_TracingQueue):
    """Per-request pushes: the formulation arrival streams replace."""

    def push_arrivals(self, requests, session_id):
        for request in requests:
            self.push(
                request.request_time_s, EventKind.ARRIVAL, request,
                session_id=session_id,
            )


def _relative_ids(trace: list[tuple]) -> list[tuple]:
    """The trace with request ids made relative to the run's first id.

    Request ids come from a process-wide counter, so two runs differ by
    a constant offset; ids are assigned in the same order in both.
    """
    base = min(f[3][0] for f in trace if f[3] is not None)
    return [
        f if f[3] is None else f[:3] + ((f[3][0] - base,) + f[3][1:],) + f[4:]
        for f in trace
    ]


def _request_rows(result) -> list[list[tuple]]:
    rows = []
    for session in result.sessions:
        requests = session.requests
        base = min((r.request_id for r in requests), default=0)
        rows.append([
            (
                r.request_id - base, r.model_code, r.model_frame,
                r.request_time_s, r.deadline_s, r.start_time_s,
                r.end_time_s, r.accelerator_id, r.energy_mj, r.dropped,
                r.faulted, r.fault_retries, r.failed_faulted,
            )
            for r in requests
        ])
    return rows


def _run(monkeypatch, queue_cls, build):
    _TracingQueue.instances = []
    monkeypatch.setattr(multisim, "EventQueue", queue_cls)
    result = build().run()
    (queue,) = _TracingQueue.instances
    return queue, result


J = build_accelerator("J", 8192)
VR = get_scenario("vr_gaming")


def _static(granularity: str):
    return lambda: MultiScenarioSimulator.replicate(
        VR, J, make_scheduler("latency_greedy"), 4,
        duration_s=0.25, granularity=granularity,
    )


def _churn_with_phases():
    windows = churn_windows(6, 0.3, 0.4, seed=3)
    social = get_scenario("social_interaction_b")
    specs = [
        SessionSpec(
            i, VR if i % 2 else get_scenario("ar_gaming"), seed=i,
            arrival_s=w.arrival_s, departure_s=w.departure_s,
            phases=(SessionPhase(0.15, social),) if i % 3 == 0 else (),
        )
        for i, w in enumerate(windows)
    ]
    return MultiScenarioSimulator(
        sessions=specs, system=J,
        scheduler=make_scheduler("latency_greedy"), duration_s=0.3,
    )


def _degrade():
    return MultiScenarioSimulator.replicate(
        VR, J, make_scheduler("latency_greedy"), 16,
        duration_s=0.25, admission="degrade",
    )


def _flaky():
    return MultiScenarioSimulator.replicate(
        VR, J, make_scheduler("latency_greedy"), 6,
        duration_s=0.4, faults="flaky", fault_seed=1,
    )


def _preemptive_edf():
    return MultiScenarioSimulator.replicate(
        VR, J, make_scheduler("edf", preemptive=True), 6,
        duration_s=0.25, granularity="segment",
    )


CASES = {
    "static_model": _static("model"),
    "static_segment": _static("segment"),
    "churn_phases": _churn_with_phases,
    "degrade": _degrade,
    "flaky": _flaky,
    "preemptive_edf": _preemptive_edf,
}


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_streams_match_per_request_pushes(self, monkeypatch, case):
        build = CASES[case]
        ref_queue, ref = _run(monkeypatch, _ReferenceQueue, build)
        new_queue, new = _run(monkeypatch, _TracingQueue, build)
        assert _relative_ids(new_queue.trace) == _relative_ids(
            ref_queue.trace
        )
        assert new.records == ref.records
        assert _request_rows(new) == _request_rows(ref)
        arrivals = sum(f[2] is EventKind.ARRIVAL for f in new_queue.trace)
        assert arrivals > 0
        # The point of streaming: the heap stays far smaller than the
        # pending frame count.
        assert new_queue.max_entries < ref_queue.max_entries

    def test_cases_exercise_their_machinery(self, monkeypatch):
        _, degraded = _run(monkeypatch, _TracingQueue, _degrade)
        assert any(
            action.kind == "degrade"
            for session in degraded.sessions
            for action in session.admission.actions
        )
        _, flaky = _run(monkeypatch, _TracingQueue, _flaky)
        assert any(r.faulted for r in flaky.all_requests())
        queue, _ = _run(monkeypatch, _TracingQueue, _churn_with_phases)
        kinds = {f[2] for f in queue.trace}
        assert {EventKind.SESSION_PHASE, EventKind.SESSION_LEAVE} <= kinds


class TestQueueLevel:
    def test_same_time_pushes_around_a_stream(self):
        q = EventQueue()
        q.push(0.5, EventKind.COMPLETION, sub_index=0)
        a, b = req(0.5, frame=0), req(0.5, frame=1)
        q.push_arrivals([a, b], session_id=3)
        q.push(0.5, EventKind.COMPLETION, sub_index=1)
        popped = [q.pop_fields() for _ in range(4)]
        assert [f[1] for f in popped] == [0, 1, 2, 3]
        assert [f[2] for f in popped] == [
            EventKind.COMPLETION, EventKind.ARRIVAL, EventKind.ARRIVAL,
            EventKind.COMPLETION,
        ]
        assert popped[1] == (0.5, 1, EventKind.ARRIVAL, a, None, 3)
        assert popped[2] == (0.5, 2, EventKind.ARRIVAL, b, None, 3)
        assert not q

    def test_reserves_consecutive_sequence_numbers(self):
        q = EventQueue()
        q.push(0.0, EventKind.SESSION_JOIN)
        q.push_arrivals([req(0.1), req(0.2), req(0.3)], session_id=0)
        q.push(0.9, EventKind.SESSION_LEAVE)
        seqs = [q.pop_fields()[1] for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_len_pop_and_next_time(self):
        q = EventQueue()
        a, b, c = req(0.1), req(0.2), req(0.4)
        q.push_arrivals([a, b, c], session_id=7)
        q.push(0.3, EventKind.COMPLETION, sub_index=2)
        assert len(q) == 4 and q.next_time_s == 0.1
        event = q.pop()
        assert (event.time_s, event.seq, event.kind, event.request,
                event.sub_index, event.session_id) == (
            0.1, 0, EventKind.ARRIVAL, a, None, 7,
        )
        assert len(q) == 3 and q.next_time_s == 0.2
        assert q.pop().request is b
        assert q.pop().kind is EventKind.COMPLETION
        assert len(q) == 1 and q.next_time_s == 0.4
        assert q.pop().request is c
        assert not q and len(q) == 0 and q.next_time_s is None
        with pytest.raises(IndexError, match="empty"):
            q.pop()

    def test_empty_stream_is_a_no_op(self):
        q = EventQueue()
        q.push_arrivals([], session_id=0)
        assert not q and len(q) == 0 and q.next_time_s is None
        q.push(0.2, EventKind.ARRIVAL, req(0.2))
        assert q.pop_fields()[1] == 0  # no sequence number was reserved

    @pytest.mark.parametrize("seed", range(20))
    def test_random_interleavings_match_reference(self, seed):
        rng = random.Random(seed)
        instants = [0.0, 0.1, 0.2, 0.3]
        ops: list[tuple] = []
        for _ in range(rng.randint(1, 16)):
            roll = rng.random()
            if roll < 0.35:
                times = sorted(
                    rng.choice(instants) for _ in range(rng.randint(0, 6))
                )
                ops.append(("stream", [req(t) for t in times],
                            rng.randint(0, 3)))
            elif roll < 0.75:
                ops.append(("push", rng.choice(instants), rng.randint(0, 3)))
            else:
                ops.append(("pop",))
        traces = []
        for cls in (_TracingQueue, _ReferenceQueue):
            q = cls()
            sizes = []
            for op in ops:
                if op[0] == "stream":
                    q.push_arrivals(op[1], op[2])
                elif op[0] == "push":
                    q.push(op[1], EventKind.COMPLETION, sub_index=0,
                           session_id=op[2])
                elif q:
                    q.pop_fields()
                sizes.append((len(q), q.next_time_s))
            while q:
                q.pop_fields()
            traces.append((q.trace, sizes))
        assert traces[0] == traces[1]


class TestStreamValidation:
    @pytest.mark.parametrize("times", [
        [math.nan],
        [0.1, math.nan, 0.3],
        [0.1, 0.2, math.nan],
        [-0.1, 0.2],
        [0.2, 0.1],
    ])
    def test_rejects_bad_times_without_side_effects(self, times):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push_arrivals(
                [InferenceRequest("HT", i, t, 1.0)
                 for i, t in enumerate(times)],
                session_id=0,
            )
        assert not q
        q.push(0.0, EventKind.ARRIVAL, req(0.0))
        assert q.pop_fields()[1] == 0
