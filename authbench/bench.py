"""Measurement loop, correctness gate and metrics of the faskit benchmark.

The loop is closed with one client: attempt i+1 starts when attempt i has
returned. Each attempt's latency runs from `run(i)` being called to its
return; drawing the inputs before it and digesting the transcript after
it are not timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checkout import ROOT, SRC
from workloads import ADVERSARIAL, GENUINE, WORKLOADS

HERE = Path(__file__).resolve().parent
PINNED_PATH = HERE / "pinned.json"

DEFAULT_SEED = 0
# A p90 needs at least 10 samples beyond it, hence 100 latency samples.
MIN_SAMPLES = 100
# Set-up is timed in fresh interpreters, at least SETUP_MIN_SAMPLES times
# and until SETUP_SECONDS have been spent, so that cheap set-ups get more
# samples; the median is reported.
SETUP_MIN_SAMPLES = 3
SETUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("auth_per_s", "1/s", "higher"),
    ("auth_ms_p50", "ms", "lower"),
    ("auth_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("answered_ratio", "fraction", "higher"),
)


class GateError(Exception):
    """A correctness check failed; the message names the workload."""

    def __init__(self, message: str, run: "Run"):
        super().__init__(message)
        self.run = run


@dataclass
class Run:
    """Every attempt of one measurement, warm-up included."""

    workload: str
    seed: int
    warmup: int
    cycle: int
    kinds: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # timed attempts, s
    evidence: list = field(default_factory=list)   # (i, evidence) per grant
    tracebacks: list = field(default_factory=list)
    wl: object = None

    @property
    def timed(self) -> int:
        return len(self.latencies)

    def latency_samples(self) -> list:
        """One sample per attempt, or per cycle of attempt kinds for a
        workload that cycles them: the cycle's mean attempt latency."""
        k, lat = self.cycle, self.latencies
        return [sum(lat[j:j + k]) / k for j in range(0, len(lat) - k + 1, k)]

    @property
    def errors(self) -> int:
        return sum(o.startswith("error:")
                   for o in self.outcomes[self.warmup:])

    def outcome_counts(self, end: int | None = None) -> dict:
        counts: dict = {}
        for kind, outcome in zip(self.kinds[:end], self.outcomes[:end]):
            per_kind = counts.setdefault(kind, {})
            per_kind[outcome] = per_kind.get(outcome, 0) + 1
        return {k: dict(sorted(v.items())) for k, v in sorted(counts.items())}

    def digest(self, end: int | None = None) -> str:
        h = hashlib.sha256()
        rows = zip(self.kinds[:end], self.outcomes[:end], self.digests[:end])
        for i, (kind, outcome, digest) in enumerate(rows):
            h.update(f"{i} {kind} {outcome} {digest}\n".encode())
        return h.hexdigest()


def measure(name: str, seed: int, seconds: float,
            min_samples: int = MIN_SAMPLES, count: int | None = None,
            tracer=None) -> Run:
    """Set up workload `name` and run its warm-up, then timed attempts
    until `seconds` have passed, at least `min_samples` latency samples
    are taken and the last cycle is whole; or exactly `count` timed
    attempts when `count` is given."""
    wl = WORKLOADS[name](seed)
    run = Run(workload=name, seed=seed, warmup=wl.warmup, cycle=wl.cycle,
              wl=wl)
    call = wl.run if tracer is None else (
        lambda i: tracer.run_attempt(i, wl.run))

    def attempt(i: int) -> float:
        wl.prepare(i)
        run.kinds.append(wl.kind(i))
        start = perf_counter()
        try:
            result = call(i)
        except Exception as exc:
            # A raising attempt counts as an error; the run goes on.
            elapsed = perf_counter() - start
            run.outcomes.append("error:" + type(exc).__name__)
            run.digests.append("")
            run.tracebacks.append(traceback.format_exc())
            return elapsed
        elapsed = perf_counter() - start
        outcome = wl.outcome(result)
        run.outcomes.append(outcome)
        run.digests.append(wl.digest(result))
        if outcome == "ok":
            run.evidence.append((i, wl.evidence(i, result)))
        return elapsed

    for i in range(wl.warmup):
        attempt(i)
    i = wl.warmup
    deadline = perf_counter() + seconds
    while (run.timed < count if count is not None else
           run.timed < min_samples * wl.cycle or perf_counter() < deadline
           or run.timed % wl.cycle):
        run.latencies.append(attempt(i))
        i += 1
    return run


def load_pinned() -> dict:
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def check(run: Run, traced: Run | None = None,
          pinned: dict | None = None) -> None:
    """Raise GateError on the first failed correctness check."""
    def fail(message: str):
        raise GateError(f"{run.workload} (seed {run.seed}): {message}", run)

    for i, (kind, outcome) in enumerate(zip(run.kinds, run.outcomes)):
        if kind in ADVERSARIAL and outcome == "ok":
            fail(f"attempt {i} ({kind}) was granted")
    for i, evidence in run.evidence:
        if not run.wl.reverify(i, evidence):
            fail(f"attempt {i}: granted response does not re-verify under "
                 "the registered key")
    genuine = [o for k, o in zip(run.kinds, run.outcomes) if k == GENUINE]
    if genuine and genuine.count("ok") * 2 < len(genuine):
        fail(f"only {genuine.count('ok')} of {len(genuine)} genuine "
             "attempts were granted")
    if traced is not None and traced.digests != run.digests:
        first = next((i for i, (a, b) in enumerate(
            zip(traced.digests, run.digests)) if a != b), None)
        fail(f"traced transcripts differ from untraced ones (attempt "
             f"{first}, {len(traced.digests)} vs {len(run.digests)})")
    pinned = load_pinned() if pinned is None else pinned
    if run.seed != pinned["seed"]:
        return
    prefix = pinned["prefix"]
    if len(run.digests) < prefix:
        fail(f"{len(run.digests)} attempts are too few to check the "
             f"pinned first {prefix}")
    expected = pinned["workloads"][run.workload]
    if run.outcome_counts(prefix) != expected["outcomes"]:
        fail(f"outcome counts {run.outcome_counts(prefix)} differ from "
             f"pinned {expected['outcomes']}")
    if run.digest(prefix) != expected["digest"]:
        fail(f"transcript digest {run.digest(prefix)} differs from pinned "
             f"{expected['digest']}")


def latency_summary(run: Run) -> dict:
    lat = run.latency_samples()
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = sum(x > p90 for x in lat)
    if beyond < 10:
        raise ValueError(f"p90 over {len(lat)} samples has only {beyond} "
                         "beyond it; 10 are needed")
    return {"samples": len(lat), "p50": statistics.median(lat), "p90": p90,
            "beyond_p90": beyond}


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run: Run, setup_samples: list, rss_mib: float) -> dict:
    lat = latency_summary(run)
    return {
        "auth_per_s": run.timed / sum(run.latencies),
        "auth_ms_p50": lat["p50"] * 1e3,
        "auth_ms_p90": lat["p90"] * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mib,
        "answered_ratio": (run.timed - run.errors) / run.timed,
    }


def setup_times(name: str, seed: int, min_samples: int = SETUP_MIN_SAMPLES,
                seconds: float = SETUP_SECONDS) -> list:
    """Seconds from starting a fresh interpreter to it being ready for
    its first timed attempt, for set-up samples 1, 2, ... run one at a
    time until there are `min_samples` and `seconds` have passed."""
    times = []
    deadline = perf_counter() + seconds
    while len(times) < min_samples or perf_counter() < deadline:
        sample = len(times) + 1
        command = [sys.executable, str(HERE / "setup_probe.py"), name,
                   str(seed), str(sample)]
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                elapsed = perf_counter() - start
                _, err = proc.communicate()
            finally:
                watchdog.cancel()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed: {err}")
        times.append(elapsed)
    return times


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "faskit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(load_1m: float) -> dict:
    """What a reader needs to tell machine drift from a regression."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
