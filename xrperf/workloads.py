"""The benchmark's workloads: specs built from a seed, run one pass at a time.

A *pass* executes every spec of a workload once, the way a user of the
public API would: compile and execute one big sessions-mode spec
(``fleet_*``), or run an ``Experiment`` of suite specs serially, export
each report to plain data and append it to a fresh
:class:`~repro.eval.RunDatabase`, as ``xrbench sweep --record`` does
(``suite_sweep``). Only that work is timed. The output checks run
afterwards, untimed: each operation (one spec executed) gets a digest of
its simulated schedule and statistics, every generated request must have
completed or been dropped, and the run database must load back exactly
what was appended.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro.api as api
from repro.core import export
from repro.core.report import MultiSessionReport
from repro.eval import RunDatabase
from repro.hardware import ACCELERATOR_IDS, build_accelerator
from repro.workload import benchmark_suite

#: Why each exists: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = ("fleet_static", "suite_sweep", "fleet_dynamic")

#: Seeds per accelerator in ``suite_sweep``: 13 x 2 suite specs, each
#: seven scenario runs (182 simulator runs per pass).
SUITE_SEEDS = 2


@dataclass
class Workload:
    name: str
    specs: list[Any]
    #: Pre-built accelerator for single-spec (``fleet_*``) workloads;
    #: ``suite_sweep`` lets ``Experiment.run`` build its 13 systems.
    system: Any = None


@dataclass
class PassResult:
    seconds: float
    requests: int
    digests: list[str]
    failures: list[list[str]]
    #: Simulated outcome counters summed over the pass's operations.
    outcome: dict[str, int]
    plan_cache_hits: int = 0
    rundb_bytes: int = 0


def build(name: str, seed: int) -> Workload:
    """The workload's specs (and system) for ``seed``; same seed, same inputs."""
    names = [scenario.name for scenario in benchmark_suite()]
    if name == "fleet_static":
        spec = api.RunSpec(
            scenario=tuple(names[i % len(names)] for i in range(256)),
            accelerator="J", duration_s=2.0, seed=seed,
        )
    elif name == "fleet_dynamic":
        spec = api.RunSpec(
            scenario=tuple(names[i % len(names)] for i in range(128)),
            accelerator="J", duration_s=3.0, seed=seed,
            churn=0.25, dvfs_policy="slack", admission="degrade",
            faults="flaky", granularity="segment", scheduler="edf",
            preemptive=True,
        )
    elif name == "suite_sweep":
        return Workload(name, [
            api.RunSpec(suite=True, accelerator=acc,
                        seed=SUITE_SEEDS * seed + k)
            for k in range(SUITE_SEEDS)
            for acc in ACCELERATOR_IDS
        ])
    else:
        raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
    return Workload(name, [spec], build_accelerator(spec.accelerator, spec.pes))


def run_pass(workload: Workload, tracer: Any, db_path: Path) -> PassResult:
    """Execute every spec once (timed), then check the outputs (untimed)."""
    db = RunDatabase(db_path)
    specs = workload.specs
    plan_cache_hits = 0
    appended = []
    start = time.perf_counter()
    if workload.system is not None:
        (spec,) = specs
        plan = api.compile_plan(spec, system=workload.system)
        reports = [api.execute_plan(plan, system=workload.system)]
    else:
        sink = api.CollectingSink()
        reports = api.Experiment(name=workload.name, specs=tuple(specs)).run(
            workers=1, sinks=[sink],
        )
        plan_cache_hits = sink.events[-1].payload["plan_cache_hits"]
        for spec, report in zip(specs, reports):
            with tracer.span("core.export"):
                export.benchmark_to_dict(report)
            with tracer.span("eval.rundb"):
                appended.append(db.append(spec, report))
    seconds = time.perf_counter() - start

    loaded = db.load()
    db_failure = []
    if db.skipped_lines:
        db_failure.append(f"rundb skipped lines {db.skipped_lines}")
    if len(loaded) != len(appended):
        db_failure.append(
            f"rundb loaded {len(loaded)} records, appended {len(appended)}"
        )
    digests, failures = [], []
    outcome = dict.fromkeys(OUTCOME_KEYS, 0)
    for i, report in enumerate(reports):
        sims, op_outcome = _outcome(report)
        for key, value in op_outcome.items():
            outcome[key] += value
        op_failures = list(db_failure)
        unfinished = sum(
            1 for sim in sims for r in sim.requests
            if not (r.completed or r.dropped)
        )
        if unfinished:
            op_failures.append(f"{unfinished} requests neither done nor dropped")
        if i < min(len(loaded), len(appended)) and (
            loaded[i].to_dict() != appended[i].to_dict()
        ):
            op_failures.append("rundb record differs from the one appended")
        digests.append(_digest(report, op_outcome))
        failures.append(op_failures)
    return PassResult(
        seconds=seconds, requests=outcome["workload.requests_generated"],
        digests=digests,
        failures=failures, outcome=outcome, plan_cache_hits=plan_cache_hits,
        rundb_bytes=db_path.stat().st_size if appended else 0,
    )


OUTCOME_KEYS = (
    "workload.requests_generated",
    "runtime.dispatches",
    "runtime.faults.killed",
    "runtime.faults.retries",
    "runtime.faults.lost",
    "runtime.requests.dropped",
    "runtime.requests.missed",
)


def _outcome(report: Any) -> tuple[list[Any], dict[str, int]]:
    """The report's per-session results and its simulated counters."""
    if isinstance(report, MultiSessionReport):
        scored = list(report.session_reports)
        dispatches = len(report.result.records)
    else:
        scored = list(report.scenario_reports)
        dispatches = sum(len(r.simulation.records) for r in scored)
    sims = [r.simulation for r in scored]
    faults = [sim.faults for sim in sims if sim.faults is not None]
    return sims, {
        "workload.requests_generated": sum(len(s.requests) for s in sims),
        "runtime.dispatches": dispatches,
        "runtime.faults.killed": sum(f.killed for f in faults),
        "runtime.faults.retries": sum(f.retries for f in faults),
        "runtime.faults.lost": sum(f.lost for f in faults),
        "runtime.requests.dropped": sum(r.score.total_dropped for r in scored),
        "runtime.requests.missed": sum(
            r.score.total_missed_deadlines for r in scored
        ),
    }


def _digest(report: Any, outcome: dict[str, int]) -> str:
    """sha256 over every session's execution records, scores and counters.

    Floats enter at full precision (``repr``): a change that only speeds
    up the simulator leaves every simulated statistic bit-identical.
    """
    h = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode())
    scored = (
        report.session_reports
        if isinstance(report, MultiSessionReport)
        else report.scenario_reports
    )
    for r in scored:
        sim = r.simulation
        h.update(f"session {sim.session_id} {r.overall!r}\n".encode())
        for rec in sim.records:
            h.update(
                f"{rec.sub_index} {rec.model_code} {rec.model_frame} "
                f"{rec.segment_index}/{rec.num_segments} {rec.start_s!r} "
                f"{rec.end_s!r} {rec.energy_mj!r} {rec.dvfs} "
                f"{rec.aborted}\n".encode()
            )
    return h.hexdigest()
