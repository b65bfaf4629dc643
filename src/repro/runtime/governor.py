"""Runtime DVFS governors: per-dispatch operating-point selection.

Appendix B.1 makes latency slack a first-class energy knob ("adjust
energy to meet the deadlines or optimize using the slack to the deadline
(e.g., DVFS)").  Without a governor every dispatch runs at the nominal
operating point, and the slack optimisation
(:func:`repro.costmodel.best_point_for_slack`) is an offline ablation.
A :class:`DvfsGovernor` brings that trade into the live event loop: it is consulted at every dispatch boundary (whole models *and*
individual segments, so a governed run re-decides at each preemption
point) and picks the operating point the engine runs that piece of work
at.

Policies:

* ``static`` — today's behaviour: every dispatch runs at the engine's
  configured base point.  :func:`make_governor` returns ``None`` for it,
  so the static path is *literally* the historical code path — the
  golden schedule checksums pin it bit-identically.
* ``slack`` — greedy slack-into-energy, the live counterpart of
  :func:`~repro.costmodel.best_point_for_slack`: the cheapest ladder
  point whose scaled latency fits the work item's remaining deadline
  budget.  Downshifts are additionally bounded by the event horizon
  (stretched occupancy must end before the next already-scheduled
  event, so it cannot delay work known to be coming) and are skipped
  for models with downstream dependents (stretching an upstream
  completion eats the cascade's slack) or under contention.  When base
  speed cannot meet the deadline, the governor *races*: the cheapest
  faster point that still rescues the deadline (so it can beat static
  on deadline misses), staying at base for lost causes rather than
  burning boost energy on an unavoidable miss.
* ``race_to_idle`` — always the fastest ladder point: finish as early
  as possible, then idle.  The latency-optimal reference policy.

Selected points flow through :meth:`repro.runtime.engine.EngineFleet.begin`,
which records frequency transitions on the engine and stamps the active
point name on every :class:`~repro.runtime.engine.ExecutionRecord`, so
timelines and exports show the point each segment ran at.  All candidate
pricing goes through :meth:`repro.hardware.AcceleratorSystem.engine_cost`,
so a :class:`~repro.costmodel.CachedCostTable` answers every governed
lookup from its (task, engine, DVFS point) memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.costmodel import DEFAULT_DVFS_POINTS, CostTable, DvfsPoint
from repro.hardware import AcceleratorSystem

from .engine import ExecutionEngine, WorkItem

__all__ = [
    "DVFS_POLICIES",
    "DispatchContext",
    "DvfsGovernor",
    "StaticGovernor",
    "SlackGovernor",
    "RaceToIdleGovernor",
    "make_governor",
]

#: The governor policies the runtime (and RunSpec/CLI) accept.
DVFS_POLICIES: tuple[str, ...] = ("static", "slack", "race_to_idle")


@dataclass(frozen=True)
class DispatchContext:
    """What the event loop knows at one dispatch boundary.

    ``contended`` — other work is waiting for an engine right now.
    ``next_event_s`` — absolute time of the next already-scheduled event
    (arrival, completion, lifecycle), or ``None`` when the queue is
    empty; a stretch-averse policy keeps occupancy inside this horizon.
    ``has_dependents`` — the item's model triggers downstream models on
    completion, so stretching it consumes the cascade's slack too.
    """

    contended: bool = False
    next_event_s: float | None = None
    has_dependents: bool = False


class DvfsGovernor(Protocol):
    """Operating-point decision interface, consulted per dispatch.

    ``remaining_codes`` are the cost-table codes of the item's *later*
    segments (empty for whole-model dispatch or a final segment) — a
    governor reserving deadline budget for them can price each on the
    same engine.  ``context`` carries the event loop's view of the
    dispatch instant.
    """

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: Sequence[str | None],
        system: AcceleratorSystem,
        costs: CostTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        """The point to run ``item`` at; ``None`` means nominal."""
        ...


@dataclass(frozen=True)
class StaticGovernor:
    """Always the engine's configured base point (today's behaviour).

    Exists so governed and ungoverned call sites share one shape; the
    runtime itself short-circuits ``dvfs_policy="static"`` to *no*
    governor (see :func:`make_governor`), keeping the historical
    dispatch path untouched.
    """

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: Sequence[str | None],
        system: AcceleratorSystem,
        costs: CostTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        return engine.dvfs


def _fastest(points: tuple[DvfsPoint, ...]) -> DvfsPoint:
    return max(points, key=lambda p: p.frequency_scale)


@dataclass(frozen=True)
class RaceToIdleGovernor:
    """Always the fastest ladder point: finish early, then idle."""

    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("race_to_idle needs a non-empty ladder")

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: Sequence[str | None],
        system: AcceleratorSystem,
        costs: CostTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        # A thermally-throttled engine clamps the ladder: only points
        # under its ceiling are permitted (the engine's clamped base
        # point when none is).
        cap = engine.max_frequency_scale
        if cap is None:
            return _fastest(self.points)
        permitted = tuple(
            p for p in self.points if p.frequency_scale <= cap
        )
        return _fastest(permitted) if permitted else engine.effective_dvfs


@dataclass(frozen=True)
class SlackGovernor:
    """Greedy slack-into-energy: the paper's Appendix B.1 trade, live.

    Per dispatch the deadline budget is what remains of the request's
    slack at this instant, minus time reserved for the item's remaining
    segments (priced at the candidate point — successors re-decide at
    their own boundaries).  Three cases:

    * The budget cannot fit base speed → **race**: the *cheapest*
      faster ladder point whose scaled latency still makes the deadline
      (the one case where the governor runs faster than static); when
      no point rescues it, stay at base — racing a lost cause burns
      energy without changing the near-binary deadline outcome.
    * The system is contended, or the model triggers downstream work →
      run at the engine's base point: stretching occupancy would tax
      someone else's slack.
    * Otherwise → **downshift**: the cheapest point at or below base
      frequency whose scaled latency fits both the deadline budget and
      the event horizon (the stretched run must end before the next
      already-scheduled event, so no known future work queues behind
      it).
    """

    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("slack governor needs a non-empty ladder")

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: Sequence[str | None],
        system: AcceleratorSystem,
        costs: CostTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        # A thermal ceiling clamps both the baseline (the engine's
        # effective point — the identical object as its base point while
        # unthrottled, keeping fault-free runs bit-identical) and the
        # candidate ladder.
        base = engine.effective_dvfs
        cap = engine.max_frequency_scale
        points = (
            self.points
            if cap is None
            else tuple(p for p in self.points if p.frequency_scale <= cap)
        )
        code = item.code
        engine_index = engine.index

        # Ladder candidates are scalar probes: priced through the
        # table's dense per-fleet view when it has one (a row-dict probe
        # plus a tuple index — the floats are the cached values, so the
        # choice is bit-identical), else through the keyed lookup.
        dense = getattr(costs, "dense_view", None)
        if dense is not None:
            view = dense(system)

            def lat_en(point: DvfsPoint | None) -> tuple[float, float]:
                return view.latency_energy(code, engine_index, point)
        else:

            def lat_en(point: DvfsPoint | None) -> tuple[float, float]:
                cost = system.engine_cost(costs, code, engine_index, point)
                return cost.latency_s, cost.energy_mj

        # A ChainSuffix (the event loop's compile-time segment-chain
        # view) answers the whole reservation from its per-(engine,
        # point) latency memo; a plain code sequence is priced per call.
        # Both paths subtract the same floats in the same order, so the
        # budgets — and therefore the chosen points — are bit-identical.
        remaining = getattr(remaining_codes, "remaining_latencies", None)

        def budget_at(point: DvfsPoint | None) -> float:
            """Deadline budget for this piece with the rest of the
            chain reserved at ``point`` (successors re-decide at their
            own boundaries, so uniform pricing is self-consistent)."""
            budget_s = item.request.deadline_s - now_s
            if remaining is not None:
                for latency_s in remaining(
                    costs, system, engine_index, point
                ):
                    budget_s -= latency_s
                return budget_s
            for rcode in remaining_codes:
                budget_s -= system.engine_cost(
                    costs, rcode or item.request.model_code,
                    engine_index, point,
                ).latency_s
            return budget_s

        base_frequency = base.frequency_scale if base is not None else 1.0
        base_lat, base_en = lat_en(base)
        if budget_at(base) < base_lat:
            # Behind schedule at base speed: the cheapest faster point
            # that actually rescues the deadline (the whole remaining
            # chain priced at that point), the true
            # best-point-for-slack fallback.  Racing a lost cause burns
            # extra energy without changing the (near-binary) deadline
            # outcome, so hopeless dispatches stay at base speed.
            rescue, rescue_energy = None, float("inf")
            for point in points:
                if point.frequency_scale <= base_frequency:
                    continue
                lat, en = lat_en(point)
                if lat <= budget_at(point) and en < rescue_energy:
                    rescue, rescue_energy = point, en
            return rescue if rescue is not None else base
        if context.contended or context.has_dependents:
            return base
        stretch_s = budget_at(base)
        if context.next_event_s is not None:
            stretch_s = min(stretch_s, context.next_event_s - now_s)
        choice, choice_energy = base, base_en
        for point in points:
            if point.frequency_scale > base_frequency:
                continue
            lat, en = lat_en(point)
            if lat <= stretch_s and en < choice_energy:
                choice, choice_energy = point, en
        return choice


def make_governor(
    policy: str,
    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS,
) -> DvfsGovernor | None:
    """Build the governor for a policy name (hyphens tolerated).

    Returns ``None`` for ``"static"``: no governor means the event loop
    takes the exact historical dispatch path, which is what the golden
    schedule checksums pin.
    """
    name = policy.replace("-", "_")
    if name not in DVFS_POLICIES:
        raise ValueError(
            f"unknown dvfs policy {policy!r}; one of {DVFS_POLICIES}"
        )
    if name == "static":
        return None
    if name == "slack":
        return SlackGovernor(points=tuple(points))
    return RaceToIdleGovernor(points=tuple(points))
