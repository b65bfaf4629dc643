"""Property tests: WaitingQueue's parallel lists never drift.

The queue keeps three lists in lockstep — items, their sort keys and
their requests — plus a ``(session, model)`` index.  Random
offer/take/purge/peek sequences must leave them parallel, sorted in
dispatch order and in agreement with a plain dict model of the
one-waiting-frame-per-(session, model) policy.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.costmodel import CostTable
from repro.hardware import build_accelerator
from repro.runtime import (
    ExecutionEngine,
    SchedulerAdapter,
    WaitingQueue,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest

CODES = ("HT", "ES", "GE")
#: Few distinct instants, so equal request times (and key ties broken
#: by session and model) are common.
TIMES = (0.0, 0.1, 0.2)

offer = st.tuples(
    st.just("offer"), st.integers(0, 2), st.sampled_from(CODES),
    st.sampled_from(TIMES),
)
take = st.tuples(st.just("take"), st.integers(0, 50))
purge = st.tuples(st.just("purge"), st.integers(0, 2))
peek = st.tuples(st.just("peek"), st.integers(0, 2), st.sampled_from(CODES))
operations = st.lists(st.one_of(offer, offer, take, purge, peek),
                      max_size=40)


def check_invariants(q: WaitingQueue, model: dict) -> None:
    items, keys, requests = q._items, q._keys, q._requests
    assert keys == sorted(keys)
    assert len(items) == len(keys) == len(requests) == len(q._by_key)
    for item, key, request in zip(items, keys, requests):
        assert request is item.request
        assert key == (
            request.request_time_s, item.session_id, request.model_code
        )
        assert q._by_key[(item.session_id, request.model_code)] is item
    assert q._by_key == model
    assert all(q._by_key[k] is v for k, v in model.items())
    view = q.requests()
    assert view == requests and view is not requests
    view.clear()  # a policy mutating its copy cannot touch the queue
    assert len(q._requests) == len(items)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_parallel_lists_stay_consistent(ops):
    q = WaitingQueue()
    model: dict[tuple[int, str], WorkItem] = {}
    frame = 0
    for op in ops:
        if op[0] == "offer":
            _, session, code, t = op
            frame += 1
            item = WorkItem(
                InferenceRequest(code, frame, t, t + 0.05),
                session_id=session,
            )
            displaced = q.offer(item)
            stale = model.get((session, code))
            assert displaced is stale
            if stale is not None:
                assert stale.request.dropped
            model[(session, code)] = item
        elif op[0] == "take":
            if q:
                item = q[op[1] % len(q)]
                q.take(item)
                del model[(item.session_id, item.request.model_code)]
        elif op[0] == "purge":
            retired = q.purge_session(op[1])
            assert all(item.request.dropped for item in retired)
            assert {id(i) for i in retired} == {
                id(v) for k, v in model.items() if k[0] == op[1]
            }
            model = {k: v for k, v in model.items() if k[0] != op[1]}
        else:
            _, session, code = op
            assert q.peek(session, code) is model.get((session, code))
        check_invariants(q, model)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(offer, min_size=1, max_size=12))
def test_adapter_same_choice_on_queue_and_plain_list(ops):
    system = build_accelerator("J", 8192)
    costs = CostTable()
    engines = [ExecutionEngine(sub=sub) for sub in system.subs]
    q = WaitingQueue()
    for frame, (_, session, code, t) in enumerate(ops):
        q.offer(WorkItem(
            InferenceRequest(code, frame, t, t + 0.05), session_id=session,
        ))
    for name in ("latency_greedy", "edf", "round_robin"):
        on_queue = SchedulerAdapter(make_scheduler(name)).select(
            0.3, q, engines, system, costs
        )
        on_list = SchedulerAdapter(make_scheduler(name)).select(
            0.3, list(q), engines, system, costs
        )
        assert on_queue is not None
        assert on_queue[0] is on_list[0]
        assert on_queue[1] is on_list[1]
