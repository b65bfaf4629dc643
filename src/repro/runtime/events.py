"""Event machinery of the discrete-event benchmark runtime.

Six event kinds drive the simulation.  Two carry work: an
inference-request *arrival* (generated by the load generator, or spawned
when an upstream model completes and its dependency triggers) and an
inference *completion* on a sub-accelerator.  Three mark session
lifecycle transitions in dynamic multi-tenant runs: *session join*
(a tenant comes online and its request stream starts), *session leave*
(the tenant departs; its waiting work is retired) and *session phase*
(the tenant switches activity — e.g. AR gaming to social — and streams a
different scenario from that point).  The sixth, *control tick*, fires
periodically when a QoE admission controller is installed and lets it
shed or degrade overloaded sessions.  Lifecycle and control events carry
no request.

Events are totally ordered by (time, sequence number) so simultaneous
events resolve deterministically; lifecycle events are scheduled at
simulator build time, which gives them lower sequence numbers — and
therefore priority — over same-instant arrivals and completions.  The
event loop drains all events sharing the minimum timestamp as one batch
(see :meth:`EventQueue.pop_fields` / :attr:`EventQueue.next_time_s`),
processing them in exactly this (time, seq) order.

Root arrivals are the bulk of every run (one per streamed sensor frame)
and are all known when a session phase starts, so they are not pushed
one by one.  :meth:`EventQueue.push_arrivals` takes a phase's
time-sorted request list as one *arrival stream*: it reserves the
consecutive sequence numbers per-request pushes would have used and
keeps a single heap entry — the stream's head — that
:meth:`EventQueue.pop_fields` advances in place.  The heap holds about
one entry per session plus in-flight completions instead of every
pending frame, while the popped ``(time, seq)`` order is exactly the
per-request one.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from operator import le, length_hint
from typing import Any, Iterator, Sequence

from repro.workload import InferenceRequest

__all__ = ["EventKind", "Event", "EventQueue"]

#: Heap-entry kind of an arrival stream's head (see
#: :meth:`EventQueue.push_arrivals`).  Private to this module: popped
#: stream entries leave the queue as plain ``EventKind.ARRIVAL`` tuples.
_STREAM = object()


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    COMPLETION = "completion"
    SESSION_JOIN = "session_join"
    SESSION_LEAVE = "session_leave"
    SESSION_PHASE = "session_phase"
    #: Periodic QoE control-plane tick: an installed
    #: :class:`~repro.runtime.admission.AdmissionController` is consulted
    #: and may shed or degrade sessions.  Never scheduled when the
    #: admission policy is ``"none"``, so the historical event stream is
    #: untouched.
    CONTROL_TICK = "control_tick"
    #: Fault-injection events (repro.runtime.faults): an engine dies
    #: (its in-flight work is killed and requeued under a retry budget),
    #: comes back, hits a thermal DVFS ceiling, or cools off; WORK_RETRY
    #: fires when a killed item's backoff expires and it may requeue.
    #: None of these are ever scheduled when the fault profile is
    #: ``"none"``, so the historical event stream is untouched.
    ENGINE_FAIL = "engine_fail"
    ENGINE_RECOVER = "engine_recover"
    THERMAL_THROTTLE = "thermal_throttle"
    THERMAL_RELEASE = "thermal_release"
    WORK_RETRY = "work_retry"


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One scheduled event; ordering fields first for the heap.

    ``session_id`` tags the tenant session the event belongs to in
    multi-session runs; single-session runs use the default 0.
    ``request`` is ``None`` for session lifecycle events
    (JOIN/LEAVE/PHASE), which concern the session as a whole.
    """

    time_s: float
    seq: int
    kind: EventKind = field(compare=False)
    request: InferenceRequest | None = field(default=None, compare=False)
    sub_index: int | None = field(default=None, compare=False)
    session_id: int = field(default=0, compare=False)


_ARRIVAL = EventKind.ARRIVAL


@dataclass
class EventQueue:
    """A deterministic min-heap of events.

    Internally the heap holds flat
    ``(time_s, seq, kind, request, sub_index, session_id)`` tuples: sift
    comparisons touch only the leading floats and ints (``seq`` is
    unique, so later fields are never compared), and the hot path —
    thousands of pushes and pops per simulated second — allocates one
    tuple per event instead of a dataclass plus a wrapper.  The ordering
    is identical to comparing :class:`Event` values directly (whose
    compare fields are exactly ``(time_s, seq)``).  :meth:`pop` still
    materialises an :class:`Event` for API compatibility; the event
    loop drains via :meth:`pop_fields`, which hands back the raw tuple.

    An arrival stream (:meth:`push_arrivals`) occupies one heap entry,
    ``(head time, head seq, _STREAM, head request, cursor, session_id)``,
    where ``cursor`` iterates the stream's remaining requests.  Heap
    entries are therefore not events one for one: :meth:`__len__`
    counts pending events.
    """

    _heap: list[tuple[float, int, Any, InferenceRequest | None, Any, int]] = (
        field(default_factory=list)
    )
    _seq: Iterator[int] = field(default_factory=itertools.count)

    def push(
        self,
        time_s: float,
        kind: EventKind,
        request: InferenceRequest | None = None,
        sub_index: int | None = None,
        session_id: int = 0,
    ) -> None:
        # One comparison that also rejects NaN (every NaN comparison is
        # False), which would otherwise silently break the heap order.
        if not time_s >= 0:
            raise ValueError(f"event time must be >= 0, got {time_s}")
        heapq.heappush(
            self._heap,
            (time_s, next(self._seq), kind, request, sub_index, session_id),
        )

    def push_arrivals(
        self, requests: Sequence[InferenceRequest], session_id: int
    ) -> None:
        """Schedule a time-sorted run of ARRIVAL events as one stream.

        Equivalent to ``push(r.request_time_s, EventKind.ARRIVAL, r,
        session_id=session_id)`` for each request in order: the stream
        reserves exactly the ``len(requests)`` consecutive sequence
        numbers those pushes would have taken, and pops yield the same
        tuples in the same ``(time, seq)`` order.  The requests' times
        must be non-negative and non-decreasing.  The stream iterates
        ``requests`` in place and reads each head's time as it advances,
        so neither the list nor the pending requests' times may change
        while the stream is pending.
        """
        if not requests:
            return
        times = [request.request_time_s for request in requests]
        if not times[0] >= 0:
            raise ValueError(f"event time must be >= 0, got {times[0]}")
        if not all(map(le, times, itertools.islice(times, 1, None))):
            raise ValueError(
                "arrival stream times must be non-decreasing (and not NaN)"
            )
        seq = next(self._seq)
        self._seq = itertools.count(seq + len(requests))
        cursor = iter(requests)
        head = next(cursor)
        heapq.heappush(
            self._heap,
            (times[0], seq, _STREAM, head, cursor, session_id),
        )

    def pop(self) -> Event:
        return Event(*self.pop_fields())

    def pop_fields(
        self,
    ) -> tuple[float, int, EventKind, InferenceRequest | None, int | None,
               int]:
        """Pop the next event as its raw heap tuple (the hot-path API).

        Returns ``(time_s, seq, kind, request, sub_index, session_id)``
        — same ordering contract as :meth:`pop`, minus the
        :class:`Event` allocation.  A stream head pops as an ordinary
        ARRIVAL tuple; its successor (if any) takes its heap slot.
        """
        heap = self._heap
        if not heap:
            raise IndexError("pop from empty event queue")
        entry = heap[0]
        if entry[2] is not _STREAM:
            return heapq.heappop(heap)
        time_s, seq, _, request, cursor, session_id = entry
        head = next(cursor, None)
        if head is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (
                head.request_time_s, seq + 1, _STREAM, head, cursor,
                session_id,
            ))
        return (time_s, seq, _ARRIVAL, request, None, session_id)

    def __len__(self) -> int:
        return sum(
            1 + length_hint(entry[4]) if entry[2] is _STREAM else 1
            for entry in self._heap
        )

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_time_s(self) -> float | None:
        return self._heap[0][0] if self._heap else None
