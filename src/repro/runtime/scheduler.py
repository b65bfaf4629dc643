"""Pluggable inference dispatchers/schedulers.

The scheduler decides, whenever an engine is free and requests are
waiting, which (request, engine) pair to dispatch next.  XRBench ships a
latency-greedy scheduler (the paper's default for cost-model runs) and a
round-robin scheduler (its default for real systems); an EDF scheduler is
included as the kind of runtime optimisation the paper encourages users
to plug in.

Schedulers are deliberately simple objects with a single method so user
code can swap in anything (the yellow "user-customisable" boxes of
Figure 2): :class:`Scheduler` picks a ``(request, engine index)`` pair
from flat lists.  The event loop works on session-tagged, segment-granular
:class:`~repro.runtime.engine.WorkItem` values and stateful
:class:`~repro.runtime.engine.ExecutionEngine` objects;
:class:`SchedulerAdapter` presents those to the policy as plain lists and
maps its choice back, so every policy runs unchanged under session
multiplexing and segment-level dispatch.

Two optional protocol extensions:

* ``reset()`` — clear any cross-run state (a round-robin rotor, lazily
  inferred periods).  The event loop calls it at the start of every run,
  so back-to-back runs through one shared policy object are
  order-independent.
* ``preemptive`` / ``should_preempt(...)`` — deadline-aware segment
  preemption (forwarded by the adapter).  Under segment granularity, a
  completed segment's successors normally resume ahead of all fresh
  work; a scheduler with ``preemptive = True`` is consulted at each such
  segment boundary and may displace the waiting stale segment chain when
  fresher work is more urgent.  Preemption points stay at segment
  boundaries only — a running segment is never aborted, preserving the
  paper's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.costmodel import CostTable
from repro.hardware import AcceleratorSystem
from repro.registry import schedulers as SCHEDULER_REGISTRY
from repro.workload import InferenceRequest

from .engine import ExecutionEngine, WorkItem
from .queues import WaitingQueue

__all__ = [
    "Scheduler",
    "SchedulerAdapter",
    "LatencyGreedyScheduler",
    "RoundRobinScheduler",
    "EarliestDeadlineScheduler",
    "RateMonotonicScheduler",
    "make_scheduler",
    "register_scheduler",
    "SCHEDULERS",
]


class Scheduler(Protocol):
    """Dispatch decision interface."""

    def pick(
        self,
        now_s: float,
        waiting: list[InferenceRequest],
        idle_engines: list[int],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[InferenceRequest, int] | None:
        """Choose the next dispatch, or ``None`` to leave engines idle."""
        ...


def _requests_of(waiting: Sequence[WorkItem]) -> list[InferenceRequest]:
    """A fresh list of the waiting items' requests, in view order."""
    if isinstance(waiting, WaitingQueue):
        return waiting.requests()
    return [item.request for item in waiting]


@dataclass
class SchedulerAdapter:
    """Presents segment-granular, session-tagged work to a policy.

    The wrapped scheduler sees plain request/engine-index lists
    (materialised fresh per call from the maintained views, so the
    policy can never corrupt the event loop's state — from a
    :class:`~repro.runtime.queues.WaitingQueue` the request list is a
    slice copy of its parallel request list); the adapter maps its
    choice back onto the work item and the engine object.
    Engine-fit heuristics keep pricing by the *whole* model code — an
    acceptable approximation for a segment, whose relative engine
    affinity matches its parent model's.
    """

    inner: Scheduler

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        choice = self.inner.pick(
            now_s,
            _requests_of(waiting),
            [engine.index for engine in idle_engines],
            system,
            costs,
        )
        if choice is None:
            return None
        request, sub_index = choice
        item = next(
            (w for w in waiting if w.request is request), None
        )
        if item is None:
            raise ValueError(
                f"scheduler picked {request!r}, which is not waiting"
            )
        engine = next(
            (e for e in idle_engines if e.index == sub_index), None
        )
        if engine is None:
            raise ValueError(
                f"scheduler chose busy engine {sub_index} "
                f"(idle: {[e.index for e in idle_engines]})"
            )
        return item, engine

    @property
    def preemptive(self) -> bool:
        """Whether the wrapped policy opted into segment preemption."""
        return bool(getattr(self.inner, "preemptive", False))

    def should_preempt(
        self,
        now_s: float,
        resuming: WorkItem,
        waiting: Sequence[WorkItem],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> bool:
        """Forward the segment-boundary preemption query to the policy.

        The hook sees plain requests, mirroring ``pick``.
        """
        hook = getattr(self.inner, "should_preempt", None)
        if hook is None:
            return False
        return hook(
            now_s,
            resuming.request,
            _requests_of(waiting),
            system,
            costs,
        )


def _best_engine(
    request: InferenceRequest,
    idle_engines: list[int],
    system: AcceleratorSystem,
    costs: CostTable,
) -> int:
    """The idle engine with the lowest expected latency for this model.

    A table exposing ``dense_view`` (:class:`~repro.costmodel.
    CachedCostTable`) answers the whole sweep from one per-fleet latency
    row; other tables are priced per engine.  Both paths pick the same
    engine: the dense row holds the cache's own nominal-point floats and
    breaks latency ties toward the lowest index, exactly like the
    ``min`` key (``idle_engines`` is index-ordered).
    """
    if len(idle_engines) == 1:
        return idle_engines[0]
    dense = getattr(costs, "dense_view", None)
    if dense is not None:
        return dense(system).best_engine_index(
            request.model_code, idle_engines, None
        )
    return min(
        idle_engines,
        key=lambda i: (
            system.model_cost(costs, request.model_code, i).latency_s,
            i,
        ),
    )


@dataclass
class LatencyGreedyScheduler:
    """The paper's default: oldest request first, fastest idle engine.

    "Dispatch an inference job to an idle accelerator with the minimal
    expected latency" (artifact appendix D.2).
    """

    def pick(
        self,
        now_s: float,
        waiting: list[InferenceRequest],
        idle_engines: list[int],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[InferenceRequest, int] | None:
        if not waiting or not idle_engines:
            return None
        request = waiting[0]  # oldest data first
        return request, _best_engine(request, idle_engines, system, costs)


@dataclass
class RoundRobinScheduler:
    """Cycles engines regardless of fit (the paper's real-system default)."""

    _next_engine: int = 0

    def pick(
        self,
        now_s: float,
        waiting: list[InferenceRequest],
        idle_engines: list[int],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[InferenceRequest, int] | None:
        if not waiting or not idle_engines:
            return None
        request = waiting[0]
        # Advance the rotor to the next idle engine.  The probe set makes
        # each membership test O(1) without changing the probe order, so
        # picks are identical to the original list-scan formulation.
        idle = set(idle_engines)
        for offset in range(system.num_subs):
            candidate = (self._next_engine + offset) % system.num_subs
            if candidate in idle:
                self._next_engine = (candidate + 1) % system.num_subs
                return request, candidate
        return None

    def reset(self) -> None:
        """Rewind the rotor so runs sharing this instance are independent."""
        self._next_engine = 0


@dataclass
class EarliestDeadlineScheduler:
    """EDF: most urgent request first, fastest idle engine.

    With ``preemptive=True`` the policy also answers the runtime's
    segment-boundary preemption query: a resuming segment chain is
    displaced whenever some waiting request's deadline is strictly
    earlier than the resuming request's.
    """

    #: Opt into deadline-aware segment preemption (off by default: the
    #: resume-first order is pinned by the golden schedule checksums).
    preemptive: bool = False

    def pick(
        self,
        now_s: float,
        waiting: list[InferenceRequest],
        idle_engines: list[int],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[InferenceRequest, int] | None:
        if not waiting or not idle_engines:
            return None
        request = min(waiting, key=lambda r: (r.deadline_s, r.request_time_s))
        return request, _best_engine(request, idle_engines, system, costs)

    def should_preempt(
        self,
        now_s: float,
        resuming: InferenceRequest,
        waiting: list[InferenceRequest],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> bool:
        if not self.preemptive or not waiting:
            return False
        return min(r.deadline_s for r in waiting) < resuming.deadline_s


@dataclass
class RateMonotonicScheduler:
    """Rate-monotonic priorities: highest-rate model first.

    The classic real-time policy: shorter-period tasks preempt (here:
    pre-empt the *queue*, not running inferences) longer-period ones.
    Ties break on request age; the engine choice is latency-greedy.
    With ``preemptive=True`` the policy answers the runtime's
    segment-boundary preemption query, displacing a resuming chain when
    a strictly shorter-period model is waiting.
    """

    #: model code -> target period in seconds.  Entries provided at
    #: construction pin a model's priority for good (and survive
    #: ``reset()``).  For other codes the period is inferred from the
    #: request as ``deadline_s - request_time_s``; with
    #: ``memoize_periods=True`` the first inference per model code is
    #: memoized here and reused — classic static RM priorities.  Off by
    #: default: per-request inference is the historical behaviour pinned
    #: by the golden schedule checksums (inferred slack varies with
    #: sensor jitter and cascade timing, so memoizing is a deliberate
    #: semantic choice, not a pure optimisation).
    periods: dict[str, float] = field(default_factory=dict)
    memoize_periods: bool = False
    #: Opt into deadline-aware segment preemption (off by default).
    preemptive: bool = False

    def __post_init__(self) -> None:
        # Own a copy of the caller's dict (memoization must never write
        # inferred, jitter-dependent values into it) and remember which
        # periods were pinned: reset() clears lazily-inferred entries
        # but never the provided ones.
        self.periods = dict(self.periods)
        self._provided = dict(self.periods)

    def _period(self, request: InferenceRequest) -> float:
        known = self.periods.get(request.model_code)
        if known is not None:
            return known
        # Deadline - request time approximates the frame period.
        inferred = max(1e-6, request.deadline_s - request.request_time_s)
        if self.memoize_periods:
            self.periods[request.model_code] = inferred
        return inferred

    def pick(
        self,
        now_s: float,
        waiting: list[InferenceRequest],
        idle_engines: list[int],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[InferenceRequest, int] | None:
        if not waiting or not idle_engines:
            return None
        request = min(
            waiting, key=lambda r: (self._period(r), r.request_time_s)
        )
        return request, _best_engine(request, idle_engines, system, costs)

    def should_preempt(
        self,
        now_s: float,
        resuming: InferenceRequest,
        waiting: list[InferenceRequest],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> bool:
        if not self.preemptive or not waiting:
            return False
        return (
            min(self._period(r) for r in waiting) < self._period(resuming)
        )

    def reset(self) -> None:
        """Drop inferred periods; keep the construction-provided ones.

        Without this, a shared instance leaks one run's inferred periods
        (which depend on that run's jitter and cascade timing) into the
        next — runs through one policy object would not be
        order-independent.
        """
        self.periods = dict(self._provided)


def register_scheduler(
    name: str, cls: type | None = None, *, overwrite: bool = False
):
    """Name-address a scheduler policy class; usable as a decorator.

    ``register_scheduler("my_policy", MyPolicy)`` registers directly;
    ``@register_scheduler("my_policy")`` decorates a class.  Registered
    policies are constructible everywhere a policy name is accepted —
    ``make_scheduler``, ``RunSpec.scheduler`` and the CLI ``--scheduler``
    flag (via ``--spec``).
    """
    return SCHEDULER_REGISTRY.register(name, cls, overwrite=overwrite)


register_scheduler("latency_greedy", LatencyGreedyScheduler)
register_scheduler("round_robin", RoundRobinScheduler)
register_scheduler("edf", EarliestDeadlineScheduler)
register_scheduler("rate_monotonic", RateMonotonicScheduler)

#: Live view of the scheduler registry, kept for the original dict API.
SCHEDULERS: dict[str, type] = SCHEDULER_REGISTRY.backing


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry name.

    Keyword arguments are forwarded to the policy's constructor, e.g.
    ``make_scheduler("rate_monotonic", periods={"HT": 1 / 45})``.
    """
    cls = SCHEDULER_REGISTRY.get(name)
    return cls(**kwargs)
