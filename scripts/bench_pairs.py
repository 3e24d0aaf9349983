"""Compare two checkouts with authbench and write the result as JSON.

First it byte-compiles `src` and `authbench` in both checkouts, so that
no run compiles source: compiling counts toward `peak_rss_mb`, and a
change's line count alone would move that metric. Then it runs
`authbench/run.py` in the parent and the change checkout as
interleaved pairs (which side runs first alternates), one seed per pair,
untraced, for each workload; the pairs use seeds 1, 2, ... and the run
length BENCHMARK.json fixes. Then it makes one traced run per side on
one workload, at seed 0, and keeps the per-layer rows whose names start
with the given prefixes. The output holds every run with the
environment authbench recorded for it, each run's timed attempts per
side (see `workload_entry`), each side's median and quartiles per
end-to-end metric, the number of pairs the change won, a verdict
per metric (gain, worse, unresolved or same; see `verdict`), each side's
line count of `src/faskit/*.py` (`src_lines`), and the host's platform
and CPU.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs cloud-enc-sessions=10 --pairs sim-trials=5 \\
        --trace-workload cloud-enc-sessions \\
        --trace-prefix authscore.phe_encrypt --trace-prefix \\
        authscore.phe_decrypt --out BENCH.json

Each checkout needs `authbench/` and `src/`; each run measures the
sources of its own checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One authbench run; returns its report, or exits if it failed."""
    command = [sys.executable, "authbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(command)} exited "
                 f"{proc.returncode}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = (checkout / "authbench" / "out"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    report = json.loads(report_path.read_text())
    report["attempted"], report["failed"] = (summary["attempted"],
                                             summary["failed"])
    return report


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def verdict(old: list, new: list, wins: int, higher: bool,
            bound: float) -> str:
    """How the change's runs `new` read against the parent's `old`, paired
    in order, the change winning `wins` pairs, for a metric whose
    BENCHMARK.json `bound` is a fraction of the parent's median; the
    first of these that holds:

    - gain: the change wins at least nine tenths of the pairs, and its
      median is better than the parent's by more than the parent's
      interquartile range;
    - worse: its median is worse by more than the bound;
    - unresolved: the parent's interquartile range is wider than the bound
      and not every change run beats every parent run;
    - same.
    """
    sign = 1 if higher else -1
    old_q, new_q = quartiles(old), quartiles(new)
    scale = abs(old_q["median"]) or 1.0
    better = sign * (new_q["median"] - old_q["median"])
    spread = old_q["q3"] - old_q["q1"]
    if 10 * wins >= 9 * len(old) and better > spread:
        return "gain"
    if -better > bound * scale:
        return "worse"
    if spread > bound * scale and not all(
            sign * (b - a) > 0 for a in old for b in new):
        return "unresolved"
    return "same"


def compare(parent_runs: list, change_runs: list, metrics: list) -> dict:
    rows = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [r["metrics"][name]["value"] for r in parent_runs]
        new = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        rows[name] = {"unit": metric["unit"], "better": metric["better"],
                      "parent": quartiles(old), "change": quartiles(new),
                      "change_wins": wins, "pairs": len(old),
                      "verdict": verdict(old, new, wins, higher,
                                         metric["bound"]),
                      "parent_runs": old, "change_runs": new}
    return rows


def workload_entry(runs: dict, metrics: list) -> dict:
    """One workload's results from each side's runs, in seed order: the
    failed and attempted operations summed per side, each run's timed
    attempts per side, so a peak_rss_mb move can be read against how
    many attempts the run made, the `compare` rows and the environments."""
    return {
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "timed_attempts": {s: [r["timed_attempts"] for r in runs[s]]
                           for s in runs},
        "metrics": compare(runs["parent"], runs["change"], metrics),
        "environments": {s: [r["environment"] for r in runs[s]]
                         for s in runs}}


def src_lines(checkout: Path) -> int:
    """The number of lines in the checkout's src/faskit/*.py."""
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "faskit").glob("*.py"))


def host() -> dict:
    """What authbench's per-run environment leaves out."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=N")
    parser.add_argument("--trace-workload", required=True)
    parser.add_argument("--trace-prefix", action="append", default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    pairs = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs)]
    if any(n < 2 for _, n in pairs):
        parser.error("quartiles need at least 2 pairs per workload")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    compile_command = [sys.executable, "-m", "compileall", "-q", "src",
                       "authbench"]
    for checkout in sides.values():
        subprocess.run(compile_command, cwd=checkout, check=True)
    result = {"run_seconds": seconds, "host": host(),
              "src_lines": {s: src_lines(c) for s, c in sides.items()},
              "compiled_first": " ".join(["python"] + compile_command[1:]),
              "workloads": {}, "traced": {}}
    for workload, count in pairs:
        runs = {"parent": [], "change": []}
        for i in range(count):
            seed = 1 + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                report = run_bench(sides[side], workload, seed, seconds, 0)
                runs[side].append(report)
                print(f"{workload} seed {seed} {side}: p50 "
                      f"{report['metrics']['auth_ms_p50']['value']:.2f} ms",
                      file=sys.stderr)
        result["workloads"][workload] = {
            "seeds": [1 + i for i in range(count)],
            "first_side": "alternating, parent first on the first seed",
            **workload_entry(runs, spec["end_to_end"])}
    for side in ("parent", "change"):
        report = run_bench(sides[side], args.trace_workload, 0, seconds, 1)
        result["traced"][side] = {
            "workload": args.trace_workload, "seed": 0,
            "timed_attempts": report["timed_attempts"],
            "rows": {k: v["value"] for k, v in report["metrics"].items()
                     if k.startswith(tuple(args.trace_prefix))},
            "environment": report["environment"]}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
