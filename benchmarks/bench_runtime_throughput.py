"""Runtime-throughput benchmark: single-cell mode and the sweep suite.

Two modes share one workload definition:

* **Single cell** (default): compiles the workload flags into one
  declarative :class:`repro.api.RunSpec` and runs it twice through the
  single :func:`repro.api.execute` funnel — once pricing every dispatch
  with :class:`UncachedCostTable` (full analytical re-evaluation per
  query, the naive baseline) and once with :class:`CachedCostTable`
  (dict-probe dispatch path) — and prints a JSON blob with
  simulated-requests/sec and the cost-cache hit rate.

* **Suite** (``--suite``): sweeps sessions x granularity x churn x DVFS
  policy x admission policy (defaults: {1, 2, 4, 16} x {model, segment}
  x {0.0} x {static, slack} x {none}) over the cached dispatch path and
  writes ``BENCH_runtime.json``, the repo's runtime perf trajectory.
  ``--suite-churn 0.0 0.25`` adds dynamic-session cells, exercising the
  JOIN/LEAVE path under load; ``--suite-dvfs static slack`` (the
  default) records each cell's total energy and deadline misses per
  governor policy, so the trajectory file shows the energy saved by
  slack-aware DVFS at fixed QoE.  ``--suite-admission none degrade``
  adds QoE-control cells: each non-none cell also records how many
  sessions were shed, the degradation levels reached and the mean
  retained model quality, quantifying what the controller paid for its
  deadline-miss reduction.  Passing ``--baseline FILE`` (a previous
  suite emission) adds per-cell ``baseline_requests_per_sec`` and
  ``speedup`` fields, which is how before/after numbers for a PR are
  produced.

``--profile`` (single-cell mode) runs the cached dispatch path under
cProfile and prints the hotspot listing to stderr — how the 16-session
cell behind this file's optimisation work was profiled.
``--check-against FILE`` (suite mode) compares the fresh sweep to a
committed trajectory file and exits non-zero if any matching cell's
requests_per_sec dropped more than 15% — the bench non-regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py
    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py \
        --scenario ar_gaming --sessions 8 --repeat 5
    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py \
        --sessions 16 --repeat 3 --profile
    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py \
        --suite --output BENCH_runtime.json --baseline BENCH_runtime.json
    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py \
        --suite --check-against BENCH_runtime.json --output /tmp/fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import (
    ADMISSION_POLICIES,
    DVFS_POLICIES,
    FAULT_PROFILES,
    RunSpec,
    execute,
)
from repro.core import MultiSessionReport
from repro.costmodel import CachedCostTable, CostTable, UncachedCostTable
from repro.hardware import ACCELERATOR_IDS
from repro.runtime import quality_retention
from repro.workload import SCENARIO_ORDER

SUITE_SESSIONS = (1, 2, 4, 16)
SUITE_GRANULARITIES = ("model", "segment")
SUITE_DVFS = ("static", "slack")
SUITE_ADMISSION = ("none",)
SUITE_FAULTS = ("none",)


def build_spec(args, sessions=None, granularity=None,
               churn=None, dvfs=None, admission=None,
               faults=None) -> RunSpec:
    # A per-session scenario tuple (even of length 1) routes the spec
    # through the multi-tenant engine, so --sessions 1 still benchmarks
    # the dispatch path this file's numbers have always measured.
    return RunSpec(
        scenario=(args.scenario,) * (sessions or args.sessions),
        accelerator=args.accelerator,
        pes=args.pes,
        scheduler=args.scheduler,
        granularity=granularity or args.granularity,
        duration_s=args.duration,
        seed=args.seed,
        churn=args.churn if churn is None else churn,
        dvfs_policy=dvfs if dvfs is not None else args.dvfs,
        admission=admission if admission is not None else args.admission,
        faults=faults if faults is not None else args.faults,
    )


def energy_and_deadlines(result) -> dict:
    """Per-cell energy/QoE facts: what the dvfs axis trades."""
    completed = sum(len(s.completed()) for s in result.sessions)
    missed = sum(s.missed_deadlines() for s in result.sessions)
    return {
        "total_energy_mj": round(result.total_energy_mj(), 3),
        "completed_requests": completed,
        "missed_deadlines": missed,
        "deadline_miss_rate": round(
            missed / completed if completed else 0.0, 4
        ),
    }


def admission_facts(result) -> dict:
    """Per-cell QoE-control facts: what a non-none policy paid.

    ``mean_quality_proxy`` averages each surviving session's retained
    model quality (shed sessions count as 0 — their user got nothing),
    so the degrade-vs-none quality cost is a single number per cell.
    """
    shed = 0
    levels = []
    qualities = []
    for sim in result.sessions:
        record = sim.admission
        if record is not None and record.shed:
            shed += 1
            qualities.append(0.0)
            continue
        level = record.degradation_level if record is not None else 0
        levels.append(level)
        qualities.append(quality_retention(sim.scenario, level))
    return {
        "shed_sessions": shed,
        "max_degradation_level": max(levels, default=0),
        "degraded_sessions": sum(1 for lv in levels if lv > 0),
        "mean_quality_proxy": round(
            sum(qualities) / len(qualities), 4
        ) if qualities else 1.0,
    }


def faults_facts(result, mean_qoe: float,
                 baseline_qoe: float | None = None) -> dict:
    """Per-cell resilience facts: what a non-none fault profile cost.

    ``qoe_retention_vs_none`` compares the cell's mean session QoE to
    the matching ``faults="none"`` cell from the same sweep — the
    fault-free twin — so the QoE price of riding out the profile's
    outages is a single number per cell.
    """
    records = [s.faults for s in result.sessions if s.faults is not None]
    latencies = [
        latency for f in records for latency in f.recovery_latencies_s
    ]
    facts = {
        "fault_killed": sum(f.killed for f in records),
        "fault_retries": sum(f.retries for f in records),
        "fault_recovered": sum(f.recovered for f in records),
        "fault_lost": sum(f.lost for f in records),
        "mean_recovery_latency_ms": (
            round(sum(latencies) / len(latencies) * 1e3, 3)
            if latencies else None
        ),
        "mean_session_qoe": round(mean_qoe, 4),
    }
    if baseline_qoe is not None and baseline_qoe > 0:
        facts["qoe_retention_vs_none"] = round(mean_qoe / baseline_qoe, 4)
    return facts


def run_once(spec: RunSpec, costs):
    """One funnel pass with an injected dispatch-path cost table."""
    start = time.perf_counter()
    report = execute(spec, costs=costs)
    elapsed = time.perf_counter() - start
    assert isinstance(report, MultiSessionReport)
    requests = sum(len(s.requests) for s in report.result.sessions)
    return report, requests, elapsed


def measure(spec: RunSpec, repeat: int, make_table):
    """Median-of-N wall time for one table flavour.

    The headline fields (``wall_time_s``/``requests_per_sec``) are the
    median repeat — stable where a single draw is noisy at sub-10ms
    cells — and ``wall_time_min_s``/``wall_time_max_s`` record the
    spread so a cell whose repeats disagree wildly is visible in the
    trajectory file.  The simulated workload itself is deterministic
    (every repeat schedules identically); only wall time varies.
    """
    times = []
    report = requests = None
    for _ in range(repeat):
        report, requests, elapsed = run_once(spec, make_table())
        times.append(elapsed)
    times.sort()
    elapsed = times[len(times) // 2] if repeat % 2 else (
        (times[repeat // 2 - 1] + times[repeat // 2]) / 2.0
    )
    return {
        "simulated_requests": requests,
        "wall_time_s": round(elapsed, 6),
        "requests_per_sec": round(requests / elapsed, 2),
        "wall_time_min_s": round(times[0], 6),
        "wall_time_max_s": round(times[-1], 6),
        "repeats": repeat,
    }, report


def profile_cell(spec: RunSpec, repeat: int, limit: int = 30) -> None:
    """cProfile ``repeat`` cached-path runs and print hotspots to stderr.

    Table construction happens outside the profiled region, so the
    listing shows the dispatch loop itself — the thing the cell's
    requests/sec measures — not benchmark setup.
    """
    import cProfile
    import pstats

    tables = [CachedCostTable(base=CostTable()) for _ in range(repeat)]
    profiler = cProfile.Profile()
    profiler.enable()
    for costs in tables:
        execute(spec, costs=costs)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.strip_dirs().sort_stats("cumulative").print_stats(limit)


def check_against(payload: dict, baseline_path: str,
                  tolerance: float = 0.15) -> list[str]:
    """Compare suite cells to a committed run; list >tolerance drops.

    Cells are matched on (sessions, granularity, churn, dvfs_policy,
    admission, faults); cells only one side has are ignored (the sweep
    may grow).  A drop beyond ``tolerance`` on ``requests_per_sec`` is a
    regression.
    """
    with open(baseline_path) as fh:
        committed = json.load(fh)
    committed_cells = {
        (c["sessions"], c["granularity"], c.get("churn", 0.0),
         c.get("dvfs_policy", "static"), c.get("admission", "none"),
         c.get("faults", "none")): c
        for c in committed.get("cells", [])
    }
    failures = []
    for cell in payload["cells"]:
        key = (cell["sessions"], cell["granularity"], cell["churn"],
               cell["dvfs_policy"], cell.get("admission", "none"),
               cell.get("faults", "none"))
        before = committed_cells.get(key)
        if before is None:
            continue
        ratio = cell["requests_per_sec"] / before["requests_per_sec"]
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{key}: {cell['requests_per_sec']:.1f} req/s is "
                f"{(1.0 - ratio) * 100:.1f}% below the committed "
                f"{before['requests_per_sec']:.1f} req/s"
            )
    return failures


def run_single(args) -> dict:
    """Uncached-vs-cached comparison at one (sessions, granularity)."""
    spec = build_spec(args)
    uncached, _ = measure(spec, args.repeat, UncachedCostTable)
    cached, cached_report = measure(
        spec, args.repeat, lambda: CachedCostTable(base=CostTable())
    )
    stats = cached_report.result.cost_stats
    return {
        "workload": spec.to_dict(),
        "uncached": uncached,
        "cached": cached,
        "speedup": round(
            cached["requests_per_sec"] / uncached["requests_per_sec"], 2
        ),
        "cost_cache_hit_rate": round(stats.hit_rate, 4) if stats else None,
    }


def run_cell(args, sessions, granularity, churn, dvfs, admission,
             faults, baseline_cells, fault_free_qoe) -> dict:
    """Measure one suite cell and stamp its per-axis facts."""
    spec = build_spec(args, sessions=sessions, granularity=granularity,
                      churn=churn, dvfs=dvfs, admission=admission,
                      faults=faults)
    cached, report = measure(
        spec, args.repeat, lambda: CachedCostTable(base=CostTable()),
    )
    result = report.result
    stats = result.cost_stats
    mean_qoe = (
        sum(r.score.qoe for r in report.session_reports)
        / len(report.session_reports)
    )
    cell = {
        "sessions": sessions,
        "granularity": granularity,
        "churn": churn,
        "dvfs_policy": dvfs,
        "admission": admission,
        "faults": faults,
        **cached,
        **energy_and_deadlines(result),
        "cost_cache_hit_rate": (
            round(stats.hit_rate, 4) if stats else None
        ),
    }
    if admission != "none":
        cell.update(admission_facts(result))
    twin_key = (sessions, granularity, churn, dvfs, admission)
    if faults == "none":
        fault_free_qoe[twin_key] = mean_qoe
    else:
        cell.update(faults_facts(
            result, mean_qoe, fault_free_qoe.get(twin_key)
        ))
    before = baseline_cells.get(
        (sessions, granularity, churn, dvfs, admission, faults)
    )
    if before:
        cell["baseline_requests_per_sec"] = before["requests_per_sec"]
        cell["speedup"] = round(
            cell["requests_per_sec"] / before["requests_per_sec"], 2
        )
    fault_note = ""
    if faults != "none":
        fault_note = (
            f"  {cell['fault_killed']}k/{cell['fault_recovered']}r/"
            f"{cell['fault_lost']}l faults"
        )
    print(
        f"  {granularity:>7s} x {sessions:>2d} sessions"
        f" (churn {churn:g}, dvfs {dvfs}, "
        f"admission {admission}, faults {faults}): "
        f"{cell['requests_per_sec']:>9.1f} req/s  "
        f"{cell['total_energy_mj']:>9.1f} mJ  "
        f"{cell['missed_deadlines']:>3d} missed"
        + fault_note
        + (f"  ({cell['speedup']}x vs baseline)"
           if "speedup" in cell else ""),
        file=sys.stderr,
    )
    return cell


def run_suite(args) -> dict:
    """Sessions x granularity x churn x DVFS x admission x faults sweep
    (cached dispatch path)."""
    baseline_cells: dict[tuple, dict] = {}
    if args.baseline:
        with open(args.baseline) as fh:
            previous = json.load(fh)
        baseline_cells = {
            (c["sessions"], c["granularity"], c.get("churn", 0.0),
             c.get("dvfs_policy", "static"),
             c.get("admission", "none"),
             c.get("faults", "none")): c
            for c in previous.get("cells", [])
        }
    cells = []
    # Mean session QoE of each faults="none" cell, keyed by the rest of
    # the cell coordinates — the fault-free twin every faulted cell's
    # qoe_retention_vs_none compares against.  The faults axis iterates
    # outermost with "none" first (when present), so twins exist by the
    # time faulted cells need them.
    fault_free_qoe: dict[tuple, float] = {}
    profiles = list(args.suite_faults)
    if "none" in profiles:
        profiles = ["none"] + [p for p in profiles if p != "none"]
    for faults in profiles:
        for admission in args.suite_admission:
            for dvfs in args.suite_dvfs:
                for churn in args.suite_churn:
                    for granularity in args.suite_granularities:
                        for sessions in args.suite_sessions:
                            cells.append(run_cell(
                                args, sessions, granularity, churn, dvfs,
                                admission, faults, baseline_cells,
                                fault_free_qoe,
                            ))
    # The workload block records everything the cells share; sessions,
    # granularity, churn, dvfs_policy, admission and faults are
    # per-cell, so the spec shown is per-cell too.
    shared = build_spec(args, sessions=1, granularity="model",
                        churn=0.0, dvfs="static",
                        admission="none", faults="none").to_dict()
    for swept in ("scenario", "sessions", "granularity", "churn",
                  "dvfs_policy", "admission", "faults"):
        shared.pop(swept, None)
    shared["scenario"] = args.scenario
    return {
        "benchmark": "runtime_throughput",
        "workload": shared,
        "repeat": args.repeat,
        "cells": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="vr_gaming",
                        choices=list(SCENARIO_ORDER))
    parser.add_argument("--accelerator", default="J",
                        choices=list(ACCELERATOR_IDS))
    parser.add_argument("--pes", type=int, default=8192)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheduler", default="latency_greedy")
    parser.add_argument("--granularity", default="model",
                        choices=["model", "segment"])
    parser.add_argument("--churn", type=float, default=0.0,
                        help="session churn fraction (0..0.5; default 0)")
    parser.add_argument("--dvfs", default="static",
                        choices=list(DVFS_POLICIES),
                        help="runtime DVFS governor policy "
                             "(default static)")
    parser.add_argument("--admission", default="none",
                        choices=list(ADMISSION_POLICIES),
                        help="QoE admission controller policy "
                             "(default none)")
    parser.add_argument("--faults", default="none",
                        choices=list(FAULT_PROFILES),
                        help="fault-injection profile (default none)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--suite", action="store_true",
                        help="sweep sessions x granularity and write "
                             "the BENCH_runtime.json trajectory file")
    parser.add_argument("--suite-sessions", type=int, nargs="+",
                        default=list(SUITE_SESSIONS), metavar="N",
                        help="session counts the suite sweeps")
    parser.add_argument("--suite-granularities", nargs="+",
                        default=list(SUITE_GRANULARITIES),
                        choices=["model", "segment"], metavar="G",
                        help="granularities the suite sweeps")
    parser.add_argument("--suite-churn", type=float, nargs="+",
                        default=[0.0], metavar="F",
                        help="churn fractions the suite sweeps "
                             "(default: just 0.0, the static case)")
    parser.add_argument("--suite-dvfs", nargs="+",
                        default=list(SUITE_DVFS),
                        choices=list(DVFS_POLICIES),
                        metavar="P",
                        help="DVFS governor policies the suite sweeps "
                             "(default: static slack, recording the "
                             "energy saved at fixed QoE)")
    parser.add_argument("--suite-admission", nargs="+",
                        default=list(SUITE_ADMISSION),
                        choices=list(ADMISSION_POLICIES),
                        metavar="A",
                        help="admission policies the suite sweeps "
                             "(default: just none; adding shed/degrade "
                             "records each cell's QoE-control facts)")
    parser.add_argument("--suite-faults", nargs="+",
                        default=list(SUITE_FAULTS),
                        choices=list(FAULT_PROFILES),
                        metavar="F",
                        help="fault profiles the suite sweeps "
                             "(default: just none; adding single/flaky/"
                             "thermal records each cell's resilience "
                             "facts and QoE retention vs the fault-free "
                             "twin)")
    parser.add_argument("--output", default="BENCH_runtime.json",
                        help="suite mode: where to write the JSON")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="suite mode: previous suite JSON to "
                             "compute per-cell speedups against")
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        dest="check_against",
                        help="suite mode: committed suite JSON to gate "
                             "on — exit 1 if any matching cell's "
                             "requests_per_sec drops more than 15%%")
    parser.add_argument("--profile", action="store_true",
                        help="single-cell mode: cProfile the cached "
                             "dispatch path for the configured cell and "
                             "print the hotspots to stderr")
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error(f"--sessions must be >= 1, got {args.sessions}")
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if any(s < 1 for s in args.suite_sessions):
        parser.error("--suite-sessions values must be >= 1")
    if any(not 0.0 <= c <= 0.5 for c in args.suite_churn):
        parser.error("--suite-churn values must be in [0, 0.5]")

    if args.profile and args.suite:
        parser.error("--profile is a single-cell mode flag")
    if args.check_against and not args.suite:
        parser.error("--check-against requires --suite")

    if args.suite:
        payload = run_suite(args)
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output} ({len(payload['cells'])} cells)",
              file=sys.stderr)
        print(json.dumps(payload, indent=2))
        if args.check_against:
            failures = check_against(payload, args.check_against)
            if failures:
                print("throughput regression vs "
                      f"{args.check_against}:", file=sys.stderr)
                for line in failures:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print(f"no cell regressed >15% vs {args.check_against}",
                  file=sys.stderr)
    elif args.profile:
        profile_cell(build_spec(args), args.repeat)
    else:
        print(json.dumps(run_single(args), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
