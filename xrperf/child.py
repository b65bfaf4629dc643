"""One measurement in a fresh interpreter: set up, a cold and a warm pass.

Run by ``run.py``, never concurrently with another child::

    PYTHONPATH=src python3 xrperf/child.py --workload fleet_static \
        --seed 0 --out xrperf/out [--trace FILE]

Set-up is everything from the start of this script to the first
execution: importing ``repro`` and building the workload's specs and
accelerator system. The first pass then runs with every process-wide
memo empty (cold); the second repeats the same specs with those memos
filled (warm). One warm pass per interpreter keeps interpreters short,
so a run holds many of them and so many cold samples. The calibration
kernel runs twice before and twice after every pass. With ``--trace
FILE`` the layer seams are wrapped (see ``tracing.py``) and the spans
are written to ``FILE`` as Chrome Trace Event JSON. Prints one JSON
object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import numpy

    import workloads

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0

    import calibrate
    import tracing

    tracer = tracing.Tracer(args.workload) if args.trace else tracing.NullTracer()
    tables = tracing.install(tracer) if args.trace else []
    passes = []
    for label in ("cold", "warm"):
        tracer.pass_label = label
        before = [calibrate.kernel() for _ in range(2)]
        with tempfile.TemporaryDirectory(dir=args.out) as tmp:
            with tracer.span("bench.pass"):
                result = workloads.run_pass(
                    workload, tracer, Path(tmp) / "runs.jsonl"
                )
        after = [calibrate.kernel() for _ in range(2)]
        passes.append(dict(vars(result), calib_s=before + after))
    out = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "numpy": numpy.__version__,
        "passes": passes,
    }
    if args.trace:
        tracer.uninstall()
        tracer.write_chrome_trace(args.trace, T0)
        out["spans"] = tracer.span_totals()
        out["counts"] = dict(tracer.counts)
        out["cost_cache"] = {
            "lookups": sum(t.stats.lookups for t in tables),
            "hits": sum(t.stats.hits for t in tables),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
