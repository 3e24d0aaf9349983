"""Benchmark faskit authentication end to end, or layer by layer.

Usage:
    python3 authbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim-trials, prod-sessions, cloud-enc-sessions (see README.md).
With --trace 0 it measures for S seconds (and 100 latency samples) with
no wrappers installed, then times fresh set-ups in new interpreters, and
reports the end-to-end metrics. With --trace 1 it measures untraced for
S/2 seconds, replays the same attempts with every layer wrapped, and
reports the per-layer metrics. Either way the correctness gate runs
first; if it fails, no numbers are reported and the exit code is 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Reports and spans go to authbench/out/.
"""

import argparse
import json
import os
import sys

import checkout

checkout.add_sources()

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = checkout.ROOT / "authbench" / "out"
# A traced run replays its untraced half attempt for attempt; at least
# this many latency samples keep the pinned prefix within reach.
MIN_SAMPLES_TRACED = 50
NOTE = ("one thread, one client, no queues: layers have busy time and "
        "counts but no wait time")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _untraced(args):
    run = bench.measure(args.workload, args.seed, args.seconds)
    rss = bench.peak_rss_mib()
    bench.check(run)
    setup = bench.setup_times(args.workload, args.seed)
    metrics = bench.end_to_end(run, setup, rss)
    detail = {"latency": bench.latency_summary(run), "setup_samples_s": setup}
    return run, metrics, bench.END_TO_END, detail


def _traced(args):
    run = bench.measure(args.workload, args.seed, args.seconds / 2,
                        min_samples=MIN_SAMPLES_TRACED)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = bench.measure(args.workload, args.seed, 0,
                               count=run.timed, tracer=tracer)
    bench.check(run, traced=traced)
    overhead = sum(traced.latencies) / sum(run.latencies)
    metrics = tracer.layer_metrics(run.warmup, run.timed, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    detail = {"spans": len(tracer.spans)}
    return run, metrics, tracing.LAYER_METRICS, detail


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    args = _args(argv)
    try:
        run, values, table, detail = (_traced if args.trace else
                                      _untraced)(args)
    except bench.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.run.timed,
                          "failed": exc.run.errors, "metrics": {}}))
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": bench.environment(load_1m),
        "warmup_attempts": run.warmup, "timed_attempts": run.timed,
        "errors": run.errors, "outcomes": run.outcome_counts(),
        "transcript_digest": run.digest(), "note": NOTE,
        "detail": detail, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                    ".json", "w") as out:
        json.dump(report, out, indent=1)
    for trace in run.tracebacks[:3]:
        sys.stderr.write(trace)
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": True, "attempted": run.timed,
                      "failed": run.errors, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
