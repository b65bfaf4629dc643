"""Outside-in tracing for the benchmark: spans and counters at layer seams.

No ``repro`` file changes.  :func:`install` replaces, in memory, a
handful of public attributes of ``repro`` modules and classes with thin
wrappers that either time the call as a *span* (coarse calls: plan compilation,
one simulator run, scoring, one cost-model analysis) or only *count* it
(per-dispatch calls such as ``Scheduler.select`` and
``WaitingQueue.offer``, where a span per call would swamp the timings).
The benchmark's own call sites (export, run-database appends) open
spans directly with :meth:`Tracer.span`.

Spans live in memory and are written out once, at the end of a run, as
Chrome Trace Event JSON that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder plus named call counters.

    A span is ``[name, start_s, end_s, parent_index, pass_label]``; the
    parent is the innermost span open when it started.  The benchmark
    is single-threaded, so spans nest strictly and a span's self time is
    its duration minus its direct children's durations.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pass_label = ""
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.pass_label]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def timed(self, owner: object, attr: str, name: str) -> None:
        """Record a span ``name`` around every call of ``owner.attr``."""
        span = self.span

        def wrapper(fn: Callable) -> Callable:
            def call(*args: Any, **kwargs: Any) -> Any:
                with span(name):
                    return fn(*args, **kwargs)
            return call

        self.patch(owner, attr, wrapper)

    def counted(self, owner: object, attr: str, name: str,
                returned: str | None = None) -> None:
        """Count calls of ``owner.attr`` under ``name``; with ``returned``,
        also count the calls that return something other than ``None``."""
        counts = self.counts

        def wrapper(fn: Callable) -> Callable:
            def call(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                result = fn(*args, **kwargs)
                if returned is not None and result is not None:
                    counts[returned] += 1
                return result
            return call

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``seconds`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = totals.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_s"] += end - start - inner
        return totals

    def write_chrome_trace(self, path: str, origin_s: float) -> None:
        """Write the spans as Chrome Trace Event JSON (``X`` events)."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin_s) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "workload": self.workload,
                    "pass": label,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            }
            for name, start, end, parent, label in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class NullTracer:
    """Tracing off: the same call sites, no recording."""

    pass_label = ""

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def install(tracer: Tracer) -> list[Any]:
    """Wrap the layer seams of an imported ``repro``; returns a list that
    collects every :class:`~repro.costmodel.CachedCostTable` built while
    tracing, so the caller can read their hit/miss stats."""
    api = importlib.import_module("repro.api")
    # ``repro.api.execute`` as an attribute is the function; the module
    # is where Experiment.run resolves compile_plan/execute_plan/scoring.
    execute_mod = importlib.import_module("repro.api.execute")
    from repro.costmodel import CachedCostTable, cached, model_cost
    from repro.runtime import (
        MultiScenarioSimulator,
        SchedulerAdapter,
        WaitingQueue,
        admission,
        governor,
        segmentation,
    )
    from repro.workload import LoadGenerator

    # api: the benchmark and RunDatabase reach compile_plan through the
    # package; Experiment.run through the execute module.
    for owner in (api, execute_mod):
        tracer.timed(owner, "compile_plan", "api.compile_plan")
        tracer.timed(owner, "execute_plan", "api.execute_plan")
    # workload: root-request generation per session phase.
    tracer.timed(LoadGenerator, "root_requests", "workload.root_requests")
    # costmodel: the process-wide analysis memo, bound by name in three
    # modules.
    for owner in (cached, model_cost, segmentation):
        tracer.timed(owner, "memoized_model_cost", "costmodel.analysis")
    tables: list[Any] = []

    def registering(init: Callable) -> Callable:
        def call(self: Any, *args: Any, **kwargs: Any) -> None:
            init(self, *args, **kwargs)
            tables.append(self)
        return call

    tracer.patch(CachedCostTable, "__init__", registering)
    # runtime: Simulator.run delegates here, so suite runs show up too.
    tracer.timed(MultiScenarioSimulator, "run", "runtime.sim")
    tracer.counted(SchedulerAdapter, "select", "runtime.scheduler.select_calls")
    for cls in (governor.StaticGovernor, governor.SlackGovernor,
                governor.RaceToIdleGovernor):
        tracer.counted(cls, "select", "runtime.governor.select_calls")
    for cls in (admission.ShedController, admission.DegradeController):
        for method in ("admit", "observe", "decide"):
            tracer.counted(cls, method, "runtime.admission.calls")
    tracer.counted(WaitingQueue, "offer", "runtime.queue.offers",
                   returned="runtime.queue.stale_drops")
    # core: scoring as resolved by the execution funnel.
    for attr in ("score_sessions", "score_simulation"):
        tracer.timed(execute_mod, attr, "core.scoring")
    return tables
