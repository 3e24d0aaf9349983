"""Set up one workload in a fresh interpreter and print "ready" when its
first timed attempt could start: imports, group validation, long-lived
enrolment and key generation, and the warm-up attempts.

Usage: python3 authbench/setup_probe.py WORKLOAD SEED SAMPLE
"""

import sys

import checkout

checkout.add_sources()

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    name, seed, sample = argv[1], int(argv[2]), int(argv[3])
    wl = WORKLOADS[name](seed, sample)
    for i in range(wl.warmup):
        wl.prepare(i)
        wl.run(i)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
