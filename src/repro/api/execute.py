"""The single execution funnel: ``compile_plan`` -> ``execute_plan``.

Every front end — :class:`repro.core.Harness`, the CLI, the eval figure
drivers, the benchmarks — reaches a report the same way: a
:class:`~repro.api.RunSpec` is compiled into a
:class:`~repro.api.DispatchPlan`, and :func:`execute_plan` runs the
plan's session rows as groups on one
:class:`~repro.runtime.MultiScenarioSimulator` each:

* ``single`` mode — one one-row group, returned as its
  :class:`~repro.core.ScenarioReport`;
* ``sessions`` mode — one group of every row
  (:class:`~repro.core.MultiSessionReport`);
* ``suite`` mode — one one-row group per suite scenario, dispatching
  whole models (:class:`~repro.core.BenchmarkReport`).

:func:`execute` is compile-then-execute for one spec; both stream
:class:`~repro.api.events.ProgressEvent` records to pluggable sinks.

:class:`Experiment` executes spec lists — serially through one shared
:class:`~repro.costmodel.CachedCostTable` (so a 13-accelerator x
7-scenario sweep analyses each (model, engine) pair once), or on a
process pool (``workers > 1``) for wall-clock parallelism.  Both paths
produce identical reports: cost caching is a speed layer, never a
results layer, and every spec carries its own seeds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

# score_simulation is unused here but stays bound: the benchmark tracer
# (xrperf/tracing.py) wraps both scoring names on this module.
from repro.core.aggregate import score_sessions, score_simulation  # noqa: F401
from repro.core.config import ScoreConfig, get_score_preset
from repro.core.report import (
    BenchmarkReport,
    MultiSessionReport,
    ScenarioReport,
)
from repro.costmodel import CachedCostTable, CostTable
from repro.hardware import AcceleratorSystem, build_accelerator
from repro.runtime import (
    MultiScenarioSimulator,
    SessionSpec,
    make_scheduler,
)
from repro.workload import UsageScenario, get_scenario

from .events import EventSink, ProgressEvent, emit
from .plan import (
    DispatchPlan,
    PlanSession,
    compile_plan,
    workload_fingerprint,
)
from .spec import RunSpec, Sweep

__all__ = [
    "Report",
    "execute",
    "execute_plan",
    "Experiment",
]

#: What :func:`execute` returns, depending on :attr:`RunSpec.mode`.
Report = ScenarioReport | MultiSessionReport | BenchmarkReport


def execute(
    spec: RunSpec,
    *,
    system: AcceleratorSystem | None = None,
    costs: CostTable | None = None,
    score: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
    sinks: Sequence[EventSink] = (),
    index: int = 0,
    total: int = 1,
) -> Report:
    """Execute one spec and return its report.

    Compile-then-execute: the spec is compiled into a
    :class:`~repro.api.DispatchPlan` and handed to
    :func:`execute_plan` — the planner/executor seam.  The keyword
    overrides exist for callers that already hold richer objects than a
    spec can serialize — a pre-built ``system`` (ignoring
    ``spec.accelerator``/``spec.pes``; the plan is compiled against it,
    so fault schedules see its engine count), a shared cost table, or
    an inline :class:`ScoreConfig` replacing the named preset.  The
    spec-only call is the fully-declarative path.
    """
    return execute_plan(
        compile_plan(spec, system=system),
        system=system, costs=costs, score=score,
        measured_quality=measured_quality,
        sinks=sinks, index=index, total=total,
    )


def _dispatch_table(costs: CostTable | None) -> CostTable:
    """The table the event loop prices through.

    A table that can price segment pieces (it has ``register_graph``:
    :class:`CachedCostTable`, :class:`~repro.costmodel.UncachedCostTable`)
    is used as-is, so one shared table is never wrapped again per run;
    any other table is wrapped once in a :class:`CachedCostTable`.
    """
    if costs is not None and hasattr(costs, "register_graph"):
        return costs
    return CachedCostTable(base=costs)


def _run_group(
    plan: DispatchPlan,
    rows: Sequence[PlanSession],
    system: AcceleratorSystem,
    *,
    costs: CostTable,
    score: ScoreConfig,
    measured_quality: dict[str, float] | None,
    scenarios: Mapping[str, UsageScenario],
) -> MultiSessionReport:
    """Run plan rows as one multi-tenant group and score every session.

    The plan is consumed, not re-derived: lifetime windows come from its
    rows, the fault schedule from its compiled
    :class:`~repro.runtime.faults.FaultPlan`, and the segment-chain
    codes from its chain table (the simulator verifies them against the
    deterministic re-split).  Segment granularity applies to sessions
    mode only; single and suite rows dispatch whole models.
    """
    segmented = plan.mode == "sessions" and plan.granularity == "segment"
    fault_plan = plan.fault_plan()
    simulator = MultiScenarioSimulator(
        sessions=[
            SessionSpec(
                session_id=row.session_id,
                scenario=(
                    scenarios[row.scenario]
                    if row.scenario in scenarios
                    else get_scenario(row.scenario)
                ),
                seed=row.seed,
                frame_loss_probability=row.frame_loss,
                arrival_s=row.arrival_s,
                departure_s=row.departure_s,
            )
            for row in rows
        ],
        system=system,
        scheduler=make_scheduler(
            plan.scheduler, **({"preemptive": True} if plan.preemptive else {})
        ),
        duration_s=plan.duration_s,
        costs=costs,
        granularity="segment" if segmented else "model",
        segments_per_model=plan.segments_per_model,
        dvfs_policy=plan.dvfs_policy,
        admission=plan.admission,
        faults=fault_plan if fault_plan is not None else "none",
        fault_seed=plan.seed,
        # The chain table was compiled from the registered scenarios;
        # inline ones may split differently, so the simulator derives
        # their chains itself.
        segment_plan=(
            plan.chain_codes() if segmented and not scenarios else None
        ),
    )
    result = simulator.run()
    scores = score_sessions(result, score, measured_quality)
    reports = tuple(
        ScenarioReport(simulation=session, score=scored)
        for session, scored in zip(result.sessions, scores)
    )
    return MultiSessionReport(result=result, session_reports=reports)


def execute_plan(
    plan: DispatchPlan,
    *,
    system: AcceleratorSystem | None = None,
    costs: CostTable | None = None,
    score: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
    scenarios: Mapping[str, UsageScenario] | None = None,
    sinks: Sequence[EventSink] = (),
    index: int = 0,
    total: int = 1,
) -> Report:
    """Execute a compiled :class:`~repro.api.DispatchPlan`.

    The executor half of the planner/executor split: consumes the
    plan's resolved session table, fault schedule, segment-chain table
    and policy bindings without re-deriving them from the spec.  A plan
    round-tripped through :meth:`DispatchPlan.to_json` /
    :meth:`DispatchPlan.from_json` replays to identical results.

    ``scenarios`` maps a session row's scenario name to a live
    :class:`~repro.workload.UsageScenario`, consulted before the
    registry — for callers holding a mutated scenario a spec cannot
    serialize (Figure 7's trigger-probability sweep).
    """
    if score is None:
        score = get_score_preset(plan.score_preset)
    if system is None:
        system = build_accelerator(plan.accelerator, plan.pes)
    table = _dispatch_table(costs)
    label = plan.describe()
    emit(sinks, ProgressEvent(
        kind="spec_started", label=label, index=index, total=total,
    ))

    def group(rows: Sequence[PlanSession]) -> MultiSessionReport:
        return _run_group(
            plan, rows, system,
            costs=table, score=score, measured_quality=measured_quality,
            scenarios=scenarios or {},
        )

    if plan.mode == "suite":
        reports = []
        for i, row in enumerate(plan.sessions):
            (scenario_report,) = group([row]).session_reports
            emit(sinks, ProgressEvent(
                kind="scenario_finished",
                label=row.scenario,
                index=i,
                total=len(plan.sessions),
                payload={
                    "scenario": row.scenario,
                    "overall": scenario_report.overall,
                },
            ))
            reports.append(scenario_report)
        report: Report = BenchmarkReport(
            system=system, scenario_reports=reports
        )
    elif plan.mode == "sessions":
        report = group(plan.sessions)
    else:
        (report,) = group(plan.sessions).session_reports
    emit(sinks, ProgressEvent(
        kind="spec_finished", label=label, index=index, total=total,
        payload={"overall": _overall(report)},
    ))
    return report


def _overall(report: Report) -> float:
    """The headline score of any report shape (for progress payloads)."""
    if isinstance(report, BenchmarkReport):
        return report.xrbench_score
    if isinstance(report, MultiSessionReport):
        return report.mean_overall
    return report.overall


def _execute_worker(
    spec_dict: Mapping[str, Any], costs: CostTable | None = None
) -> Report:
    """Process-pool entry point: specs travel as plain dicts.

    The worker re-imports ``repro``, so registries re-bootstrap with the
    built-ins plus anything registered at import time; names registered
    dynamically in the parent resolve here only under the ``fork`` start
    method (see :meth:`Experiment.run`).
    """
    try:
        spec = RunSpec.from_dict(spec_dict)
    except KeyError as exc:
        raise KeyError(
            f"{exc.args[0]} (in a worker process: names registered at "
            f"runtime must come from a module imported in the worker, "
            f"or run with workers=1)"
        ) from None
    return execute(spec, costs=costs)


#: How many serial in-process attempts a sweep cell whose pool worker
#: died (e.g. OOM-killed) gets before the sweep fails.
WORKER_RETRY_LIMIT = 2


def _pooled_result(
    spec: RunSpec,
    future: Any,
    costs: CostTable | None,
    sinks: Sequence[EventSink],
    index: int,
    total: int,
) -> tuple[Report, int]:
    """One pooled cell's report, riding out worker-process deaths.

    A :class:`BrokenProcessPool` means the *worker* died (OOM killer,
    segfaulting native code, a crashed interpreter) — not that the spec
    is invalid — so the cell is retried serially, in this process, up to
    :data:`WORKER_RETRY_LIMIT` times before the sweep fails.  Spec-level
    exceptions (bad names, validation errors) are deterministic and
    re-raise immediately.  Returns ``(report, retries_used)``.
    """
    try:
        return future.result(), 0
    except BrokenProcessPool as exc:
        error: BaseException = exc
    for attempt in range(1, WORKER_RETRY_LIMIT + 1):
        emit(sinks, ProgressEvent(
            kind="spec_retried", label=spec.describe(),
            index=index, total=total,
            payload={"attempt": attempt, "error": type(error).__name__},
        ))
        try:
            return execute(spec, costs=costs), attempt
        except BrokenProcessPool as exc:  # pragma: no cover - defensive
            error = exc
    raise RuntimeError(
        f"spec {spec.describe()!r} failed {WORKER_RETRY_LIMIT + 1} "
        f"times (worker process died); giving up"
    ) from error


@dataclass(frozen=True)
class Experiment:
    """A named, ordered collection of specs executed as one unit.

    Serial runs (``workers=1``) share one :class:`CachedCostTable`, so
    repeated (model, engine, DVFS) pricing across specs is analysed
    once.  ``workers > 1`` fans specs out to a process pool; results
    are returned in spec order and are identical to serial execution
    (each spec is self-contained and carries its own seeds, and any
    caller-supplied ``costs`` table is shipped to the workers).  One
    caveat: scenario/scheduler/accelerator names registered dynamically
    at runtime resolve in pooled workers only under the ``fork``
    process start method — under ``spawn``/``forkserver`` the worker
    re-imports built-ins only, so put custom registrations in an
    imported module or run serially.
    """

    name: str = "experiment"
    specs: tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.specs, list):
            object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def from_sweep(cls, sweep: Sweep, name: str = "sweep") -> "Experiment":
        return cls(name=name, specs=tuple(sweep.expand()))

    def __len__(self) -> int:
        return len(self.specs)

    def run(
        self,
        *,
        workers: int = 1,
        sinks: Sequence[EventSink] = (),
        costs: CostTable | None = None,
    ) -> list[Report]:
        """Execute every spec; reports come back in spec order."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        specs = list(self.specs)
        total = len(specs)
        emit(sinks, ProgressEvent(
            kind="experiment_started", label=self.name, total=max(total, 1),
            payload={"specs": total, "workers": workers},
        ))
        retried_cells: list[str] = []
        plan_cache_hits: int | None = None
        if workers == 1 or total <= 1:
            shared = _dispatch_table(costs)
            # Plan cache keyed on the workload fingerprint (the spec
            # minus its seed): sweep cells sharing a workload reuse the
            # seed-independent compilation — notably the segment-chain
            # table — instead of recompiling it per cell.
            plans: dict[str, DispatchPlan] = {}
            plan_cache_hits = 0
            reports = []
            for i, spec in enumerate(specs):
                cached = plans.get(workload_fingerprint(spec))
                if cached is not None:
                    plan_cache_hits += 1
                plan = compile_plan(spec, reuse=cached)
                plans[plan.workload_fingerprint] = plan
                reports.append(execute_plan(
                    plan, costs=shared, sinks=sinks, index=i, total=total,
                ))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = []
                for i, spec in enumerate(specs):
                    # Mirror the serial event stream (workers cannot
                    # emit to parent-side sinks themselves; per-scenario
                    # suite events are the one omission).
                    emit(sinks, ProgressEvent(
                        kind="spec_started", label=spec.describe(),
                        index=i, total=total,
                    ))
                    futures.append(
                        pool.submit(_execute_worker, spec.to_dict(), costs)
                    )
                reports = []
                retried: list[str] = []
                for i, (spec, future) in enumerate(zip(specs, futures)):
                    report, retries = _pooled_result(
                        spec, future, costs, sinks, i, total
                    )
                    if retries:
                        retried.append(spec.describe())
                    emit(sinks, ProgressEvent(
                        kind="spec_finished", label=spec.describe(),
                        index=i, total=total,
                        payload={"overall": _overall(report)},
                    ))
                    reports.append(report)
                retried_cells = retried
        finished_payload: dict[str, Any] = {"specs": total}
        if plan_cache_hits is not None:
            finished_payload["plan_cache_hits"] = plan_cache_hits
        if retried_cells:
            finished_payload["retried"] = retried_cells
        emit(sinks, ProgressEvent(
            kind="experiment_finished", label=self.name,
            index=max(total - 1, 0), total=max(total, 1),
            payload=finished_payload,
        ))
        return reports

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Experiment":
        return cls(
            name=data.get("name", "experiment"),
            specs=tuple(
                RunSpec.from_dict(d) for d in data.get("specs", ())
            ),
        )
