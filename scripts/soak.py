"""Soak check: a long-lived service provider and gateway keep bounded memory.

For each case and score mode in COMBINATIONS, the simulator's world for
trial 0 of that scenario (t=2, n=5, the `sim` group, its default weights,
seed 1), a `_Trial` on random.Random(1), is built once: one service
provider, one gateway, five devices with genuine readings and, in the
cloud score modes, one scoring service. They then authenticate session
after session on the trial's nonce stream, with `now` advancing by one
each session. The first FILL sessions run untraced and fill every bounded
window: each DeviceSigner's session ids, the provider's nonces, the plain
scoring service's scores and every transcript. Then `tracemalloc` traces
two runs. The first, one signer window long, replaces every object those
windows hold with one allocated under tracing; until then each evicted
object was allocated untraced, so freeing it does not lower traced memory
and a bounded window would read as ~60 B of growth per session. The second
run, of RUN sessions, must grow traced memory by less than BOUND bytes per
session; keeping one session-id string per session (~60 B) would fail
that. A traced session costs about 30 times an untraced one, so each
combination takes one to three minutes.

    PYTHONPATH=src python3 scripts/soak.py

Prints one JSON line per combination and exits 1 if a session is denied
or memory grows in any of them.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import tracemalloc

from faskit.protocol import authenticate
from faskit.simulator import ScenarioConfig, _Trial
from faskit.thresholdsig import _SESSION_WINDOW

FILL = 1100      # more than _SESSION_WINDOW, so every window is full
WARM = _SESSION_WINDOW
RUN = 300
BOUND = 8        # bytes per session

COMBINATIONS = ((2, "local-bypass"), (3, "local-bypass"),
                (2, "cloud-plain"), (2, "cloud-encrypted"))


class Soak:
    def __init__(self, case: int, score_mode: str):
        self.trial = _Trial(ScenarioConfig(case=case, t=2, n=5,
                                           score_mode=score_mode, seed=1,
                                           trials=1), random.Random(1))
        self.now = 0

    def run(self, sessions: int) -> None:
        trial = self.trial
        for _ in range(sessions):
            self.now += 1
            result = authenticate(trial.pd, trial.dds, trial.sp, now=self.now,
                                  rng=trial.rng_nonce, fasp=trial.fasp)[-1]
            if not result.payload["granted"]:
                sys.exit(f"session {self.now} denied: {result.payload}")


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def check(case: int, score_mode: str) -> bool:
    """Run one combination, print its JSON line; True if it stays bounded."""
    soak = Soak(case, score_mode)
    soak.run(FILL)
    tracemalloc.start()
    try:
        start = traced_bytes()
        soak.run(WARM)
        middle = traced_bytes()
        soak.run(RUN)
        end = traced_bytes()
    finally:
        tracemalloc.stop()
    per_session = (end - middle) / RUN
    ok = per_session < BOUND
    print(json.dumps({"case": case, "score_mode": score_mode,
                      "sessions": FILL + WARM + RUN,
                      "session_window": _SESSION_WINDOW,
                      "warm_run_bytes": middle - start,
                      "measured_run_bytes": end - middle,
                      "bytes_per_session": per_session,
                      "bound": BOUND, "ok": ok}), flush=True)
    return ok


def main() -> int:
    results = [check(case, mode) for case, mode in COMBINATIONS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
