"""XRBench host-time benchmark: cold/warm simulated-request throughput.

Run from the repository root::

    python3 xrperf/run.py --workload fleet_static --seed 0 --seconds 38 --trace 0
    python3 xrperf/run.py --workload all

Each measurement is a fresh interpreter (``child.py``), started one
after another and never concurrently, until ``--seconds`` are used (at
least three).  ``--trace 0`` prints the end-to-end metrics: set-up time,
cold and warm simulated requests per host second, and peak resident
memory, each the median over the run's samples.  ``--trace 1`` runs
untraced/traced pairs of children at the same seed and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object; details (samples,
work counters, the machine stamp) go to ``xrperf/out/``.  See
``xrperf/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("fleet_static", "suite_sweep", "fleet_dynamic")
#: Fewest children (or untraced/traced pairs) a run makes.
MIN_CHILDREN = 3
MIN_PAIRS = 2
#: Seconds the calibration kernel (``calibrate.py``) takes on the
#: reference machine state: an idle 2-vCPU Intel Xeon container,
#: Python 3.11.
REF_KERNEL_S = 0.030
#: How strongly pass times follow the kernel's slowdown on that box:
#: log-log regressions over 500+ passes of all three workloads gave
#: 0.62-0.80 (attenuated by the kernel's own noise), and 0.8 left the
#: least run-to-run spread.  Host times are reported divided by
#: ``slowdown ** SPEED_ELASTICITY``.
SPEED_ELASTICITY = 0.8
#: A child that runs longer than this is killed and the run fails (a
#: healthy one takes under 10 s).
CHILD_TIMEOUT_S = 60.0

#: Per-layer work counters: exact for a fixed seed.
COUNTERS = (
    "api.compile_plan.calls",
    "api.plan_cache.hits",
    "workload.root_requests.calls",
    "workload.requests_generated",
    "costmodel.analysis.calls",
    "costmodel.cache.lookups",
    "runtime.sim.runs",
    "runtime.dispatches",
    "runtime.scheduler.select_calls",
    "runtime.governor.select_calls",
    "runtime.admission.calls",
    "runtime.queue.offers",
    "runtime.queue.stale_drops",
    "runtime.faults.killed",
    "runtime.faults.retries",
    "runtime.faults.lost",
    "runtime.requests.dropped",
    "runtime.requests.missed",
    "core.scoring.calls",
    "eval.rundb.appends",
    "eval.rundb.bytes",
)
#: Span name -> per-layer self-time metric.
SELF_TIMES = {
    "api.compile_plan": "api.compile_plan.self_s",
    "workload.root_requests": "workload.root_requests.self_s",
    "costmodel.analysis": "costmodel.analysis.self_s",
    "runtime.sim": "runtime.sim.self_s",
    "core.scoring": "core.scoring.self_s",
    "core.export": "core.export.self_s",
    "eval.rundb": "eval.rundb.self_s",
}


def declared_metrics(trace: bool) -> dict[str, str]:
    """``BENCHMARK.json``'s metrics for one mode, name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class BenchmarkError(RuntimeError):
    """A child failed or the measured metrics break the declaration."""


def spawn(workload: str, seed: int, trace: Path | None = None) -> dict:
    """Run one child to completion and return its parsed result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(OUT),
    ]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"child exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"child printed no result:\n{proc.stdout}") from None


def run_children(seconds: float, minimum: int, make: Any) -> list:
    """Call ``make()`` until ``seconds`` are spent (at least ``minimum``
    times), stopping early rather than overrun by one more call."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < minimum or (
        time.perf_counter() - start + last <= seconds
    ):
        began = time.perf_counter()
        results.append(make())
        last = time.perf_counter() - began
    return results


def check_ops(children: list[dict], reference: list[str]) -> tuple[int, int]:
    """``(attempted, failed)`` over every pass of every child.

    An operation fails when one of its own checks failed or when its
    digest differs from the same operation's in ``reference``: the cold
    and the warm pass, in every interpreter, must simulate the same
    schedule.
    """
    attempted = failed = 0
    for child in children:
        for p in child["passes"]:
            attempted += len(p["digests"])
            failed += sum(
                bool(failures) or digest != ref
                for digest, failures, ref in zip(
                    p["digests"], p["failures"], reference
                )
            )
    return attempted, failed


def kernel_slowdown(p: dict) -> float:
    """How many times slower than the reference the calibration kernels
    run next to pass ``p`` were."""
    return statistics.median(p["calib_s"]) / REF_KERNEL_S


def time_factor(p: dict) -> float:
    """How many times longer than at the reference speed pass ``p`` took
    because of the machine."""
    return kernel_slowdown(p) ** SPEED_ELASTICITY


def medians(children: list[dict], factor: Any) -> dict[str, float]:
    """The end-to-end metrics, host times divided by ``factor(pass)``."""
    cold, warm = zip(*(c["passes"] for c in children))
    return {
        "setup_s": statistics.median(
            c["setup_s"] / factor(c["passes"][0]) for c in children
        ),
        "cold_req_per_s": statistics.median(
            p["requests"] / p["seconds"] * factor(p) for p in cold
        ),
        "warm_req_per_s": statistics.median(
            p["requests"] / p["seconds"] * factor(p) for p in warm
        ),
        "peak_rss_mib": statistics.median(
            c["peak_rss_mib"] for c in children
        ),
    }


def end_to_end(workload: str, seed: int,
               seconds: float) -> tuple[dict, list, dict]:
    """Median set-up time, cold and warm throughput and peak memory.

    Host times are scaled to the reference machine speed (see
    ``calibrate.py``); the unscaled medians go to the details file.
    """
    children = run_children(
        seconds, MIN_CHILDREN, lambda: spawn(workload, seed)
    )
    unscaled = medians(children, lambda p: 1.0)
    unscaled["kernel_slowdown"] = statistics.median(
        kernel_slowdown(p) for c in children for p in c["passes"]
    )
    return medians(children, time_factor), children, unscaled


def layer_metrics(child: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child (all its passes summed).

    Self times are scaled to the reference speed by the child's median
    calibration, like every host time the benchmark reports.
    """
    spans = child["spans"]
    factor = statistics.median(time_factor(p) for p in child["passes"])
    counts = dict.fromkeys(COUNTERS, 0)
    counts.update(child["counts"])
    for p in child["passes"]:
        for key, value in p["outcome"].items():
            counts[key] += value
        counts["api.plan_cache.hits"] += p["plan_cache_hits"]
        counts["eval.rundb.bytes"] += p["rundb_bytes"]

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    counts["api.compile_plan.calls"] = calls("api.compile_plan")
    counts["workload.root_requests.calls"] = calls("workload.root_requests")
    counts["costmodel.analysis.calls"] = calls("costmodel.analysis")
    counts["costmodel.cache.lookups"] = child["cost_cache"]["lookups"]
    counts["runtime.sim.runs"] = calls("runtime.sim")
    counts["core.scoring.calls"] = calls("core.scoring")
    counts["eval.rundb.appends"] = calls("eval.rundb")
    out: dict[str, float] = dict(counts)
    for span, name in SELF_TIMES.items():
        out[name] = spans.get(span, {}).get("self_s", 0.0) / factor
    lookups = child["cost_cache"]["lookups"]
    out["costmodel.cache.hit_rate"] = (
        child["cost_cache"]["hits"] / lookups if lookups else 0.0
    )
    dispatches = counts["runtime.dispatches"]
    out["runtime.host_us_per_dispatch"] = (
        out["runtime.sim.self_s"] / dispatches * 1e6 if dispatches else 0.0
    )
    return out


def traced(workload: str, seed: int,
           seconds: float) -> tuple[dict, list, dict]:
    """Untraced/traced child pairs: per-layer metrics and trace overhead.

    Work counters must repeat exactly across the traced children and
    the traced schedules must equal the untraced ones; the caller
    counts a mismatch as failed operations.
    """
    trace_file = OUT / f"{workload}-seed{seed}.trace.json"

    def pair() -> tuple[dict, dict]:
        return spawn(workload, seed), spawn(workload, seed, trace_file)

    pairs = run_children(seconds, MIN_PAIRS, pair)
    layers = [layer_metrics(t) for _, t in pairs]
    metrics = {
        name: (
            layers[0][name] if name in COUNTERS
            else statistics.median(layer[name] for layer in layers)
        )
        for name in layers[0]
    }
    metrics["trace.overhead_s"] = statistics.median(
        sum(p["seconds"] / time_factor(p) for p in t["passes"])
        - sum(p["seconds"] / time_factor(p) for p in u["passes"])
        for u, t in pairs
    )
    for layer, (_, child) in zip(layers, pairs):
        if any(layer[name] != layers[0][name] for name in COUNTERS):
            for p in child["passes"]:
                for failures in p["failures"]:
                    failures.append("work counters differ across traced runs")
    return metrics, [child for p in pairs for child in p], {}


def stamp(children: list[dict]) -> dict[str, Any]:
    """What the numbers were measured on and with."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": children[0]["numpy"],
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the stamp."""
    measure = traced if trace else end_to_end
    metrics, children, unscaled = measure(workload, seed, seconds)
    reference = children[0]["passes"][0]["digests"]
    attempted, failed = check_ops(children, reference)
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
            f"{sorted(units)}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "stamp": stamp(children), "result": result,
        "unscaled": unscaled, "children": children,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, indent=1))
    return result, details["stamp"]


def describe(workload: str, result: dict) -> str:
    parts = [f"{workload:<14}"] + [
        f"{name} {m['value']:.6g} {m['unit']}"
        for name, m in result["metrics"].items()
    ]
    parts.append(f"attempted {result['attempted']} failed {result['failed']}")
    return "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Set-up is measured importing from bytecode, as an installed package
    # does; PYTHONDONTWRITEBYTECODE would otherwise leave every child
    # compiling ``repro`` from source.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], machine = run(
                name, args.seed, args.seconds, bool(args.trace)
            )
            print(describe(name, results[name]), flush=True)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"stamp {json.dumps(machine, sort_keys=True)}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
