"""Runtime data structures (Figure 2): the waiting queue and the
dependency tracker.

:class:`WaitingQueue` implements the frame-freshness drop policy: at most
one *waiting* request per (session, model).  When a new frame arrives
while the previous one is still waiting to start, the stale frame is
dropped — processing it could no longer contribute to the target rate
(its successor has already arrived), and real XR runtimes prefer the
fresh frame.  Requests that have *started* are never aborted.  The queue
spans every session, holding session-tagged
:class:`~repro.runtime.engine.WorkItem` values in dispatch order; it is
maintained incrementally on offer/take, so the event loop hands
schedulers a ready-sorted view instead of rebuilding and re-sorting a
list on every scheduler call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from repro.workload import Dependency, InferenceRequest, UsageScenario

from .engine import WorkItem

__all__ = [
    "WaitingQueue",
    "DependencyTracker",
]


def _dispatch_order(item: WorkItem) -> tuple[float, int, str]:
    """Global dispatch order: oldest data first, session/model tie-breaks."""
    return (
        item.request.request_time_s,
        item.session_id,
        item.request.model_code,
    )


@dataclass
class WaitingQueue:
    """All sessions' waiting work, maintained in dispatch order.

    At most one waiting :class:`WorkItem` per (session, model); offering
    a fresh frame drops the stale one (frame-freshness policy).  Items are kept
    sorted by ``(request_time_s, session_id, model_code)`` — inserted and
    removed by bisection — so reading the queue is free for the event
    loop and for schedulers, which receive this object directly as their
    waiting view.  Treat it as read-only inside a scheduler: only the
    event loop offers and takes.

    The sort keys live in ``_keys``, a list kept exactly parallel to
    ``_items``: bisection then compares plain tuples instead of calling
    a key function O(log n) times per insert/remove, which is the hot
    cost at fleet scale (the key is computed once per offer).  The key
    fields are stable for a waiting item — request times are only ever
    shifted *before* the item is offered — so the parallel lists cannot
    drift.  A third parallel list, ``_requests``, holds each item's
    request, so the plain-request view policies receive
    (:meth:`requests`) is a slice copy rather than a rebuild.
    """

    _items: list[WorkItem] = field(default_factory=list)
    _keys: list[tuple[float, int, str]] = field(default_factory=list)
    _requests: list[InferenceRequest] = field(default_factory=list)
    _by_key: dict[tuple[int, str], WorkItem] = field(default_factory=dict)
    dropped: list[InferenceRequest] = field(default_factory=list)

    def offer(self, item: WorkItem) -> WorkItem | None:
        """Add a fresh work item; returns the displaced stale item, if any.

        The stale item's request is marked dropped.
        """
        request = item.request
        session_id = item.session_id
        code = request.model_code
        key = (session_id, code)
        items = self._items
        keys = self._keys
        stale = self._by_key.get(key)
        if stale is not None:
            # One waiting item per (session, model) makes the stale
            # item's sort key unique, so one bisection finds it.
            stale_request = stale.request
            index = bisect_left(
                keys, (stale_request.request_time_s, session_id, code)
            )
            if index == len(items) or items[index] is not stale:
                index = self._locate(stale)
            del items[index]
            del keys[index]
            del self._requests[index]
            stale_request.dropped = True
            self.dropped.append(stale_request)
        self._by_key[key] = item
        order = (request.request_time_s, session_id, code)
        index = bisect_right(keys, order)
        items.insert(index, item)
        keys.insert(index, order)
        self._requests.insert(index, request)
        return stale

    def take(self, item: WorkItem) -> None:
        """Remove an item that is about to be dispatched."""
        key = (item.session_id, item.request.model_code)
        current = self._by_key.get(key)
        if current is not item:
            raise ValueError(
                f"work item {item!r} is not waiting "
                f"(queue holds {current!r})"
            )
        index = self._locate(item)
        del self._items[index]
        del self._keys[index]
        del self._requests[index]
        del self._by_key[key]

    def peek(self, session_id: int, model_code: str) -> WorkItem | None:
        """The waiting item for ``(session, model)``, if any.

        Lets the fault-recovery machinery honour the freshness policy
        when deciding whether a killed item may requeue: if a fresher
        frame of the same model is already waiting, the stale retry is
        abandoned instead of displacing it.
        """
        return self._by_key.get((session_id, model_code))

    def purge_session(self, session_id: int) -> list[WorkItem]:
        """Retire every waiting item of one session (departure / phase end).

        The retired items' requests are marked dropped and appended to
        ``dropped``: they were streamed while the session was online but
        will never run, so they degrade QoE exactly like freshness drops
        do.  Returns the retired items, oldest data first.
        """
        retired = [
            item for item in self._items if item.session_id == session_id
        ]
        if not retired:
            return []
        kept = [
            (key, item)
            for key, item in zip(self._keys, self._items)
            if item.session_id != session_id
        ]
        self._keys = [key for key, _ in kept]
        self._items = [item for _, item in kept]
        self._requests = [item.request for item in self._items]
        for item in retired:
            del self._by_key[(session_id, item.request.model_code)]
            item.request.dropped = True
            self.dropped.append(item.request)
        return retired

    def _locate(self, item: WorkItem) -> int:
        """Index of ``item`` in the sorted list (identity match)."""
        index = bisect_left(self._keys, _dispatch_order(item))
        while index < len(self._items):
            if self._items[index] is item:
                return index
            index += 1
        raise ValueError(f"work item {item!r} is not in the queue")

    def requests(self) -> list[InferenceRequest]:
        """The waiting requests in dispatch order, as a fresh list."""
        return self._requests[:]

    # -- read-only sequence view (what schedulers see) -----------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index: int) -> WorkItem:
        return self._items[index]

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self._items)


@dataclass
class DependencyTracker:
    """Maps completed upstream inferences to downstream spawns."""

    scenario: UsageScenario

    def downstream_of(self, model_code: str) -> list[Dependency]:
        """Dependencies that fire when ``model_code`` completes a frame."""
        return [
            d for d in self.scenario.dependencies if d.upstream == model_code
        ]
