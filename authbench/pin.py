"""Rewrite pinned.json from the program as it stands: the outcome counts
and combined transcript digest of the first PREFIX attempts of every
workload at the default seed. Run it only when a change is meant to alter
transcripts, and say so in that change.

Usage: python3 authbench/pin.py
"""

import json

import checkout

checkout.add_sources()

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PREFIX = 50


def main() -> None:
    pinned = {"seed": bench.DEFAULT_SEED, "prefix": PREFIX, "workloads": {}}
    for name in WORKLOADS:
        run = bench.measure(name, bench.DEFAULT_SEED, 0, min_samples=PREFIX)
        pinned["workloads"][name] = {"outcomes": run.outcome_counts(PREFIX),
                                     "digest": run.digest(PREFIX)}
    with open(bench.PINNED_PATH, "w") as out:
        json.dump(pinned, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
