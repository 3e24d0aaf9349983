"""Soak check: a long-lived service provider and gateway keep bounded memory.

One service provider, one gateway and five CASE2 devices (t=2) on the
`sim` group authenticate session after session, with `now` advancing by
one each session. The first FILL sessions run untraced and fill every
bounded window: each DeviceSigner's session ids, the provider's nonces
and every transcript. Then `tracemalloc` traces two runs. The first, one
signer window long, replaces every object those windows hold with one
allocated under tracing; until then each evicted object was allocated
untraced, so freeing it does not lower traced memory and a bounded window
would read as ~60 B of growth per session. The second run, of RUN
sessions, must grow traced memory by less than BOUND bytes per session;
keeping one session-id string per session (~60 B) would fail that.
A traced session costs about 30 times an untraced one, so the check
takes about a minute.

    PYTHONPATH=src python3 scripts/soak.py

Prints one JSON line and exits 1 if a session is denied or memory grows.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import tracemalloc

from faskit.algebra import get_group
from faskit.authscore import FusionPolicy, Modality
from faskit.protocol import (Case, CaseStrategy, DumbDevice, PersonalDevice,
                             ServiceProvider, enroll, pd_run_authentication,
                             request_challenge)
from faskit.sharing import ThresholdParams
from faskit.thresholdsig import _SESSION_WINDOW

FILL = 1100      # more than _SESSION_WINDOW, so every window is full
WARM = _SESSION_WINDOW
RUN = 300
BOUND = 8        # bytes per session

MODALITIES = (Modality.GAIT, Modality.LOCATION, Modality.HEARTBEAT)


class Soak:
    def __init__(self):
        rng = random.Random(1)
        self.rng = rng
        self.sp = ServiceProvider(sp_id="sp1", rng=rng)
        policy = FusionPolicy(weights=dict.fromkeys(MODALITIES, 1.0))
        self.pd = PersonalDevice(user_id="user1", policy=policy)
        self.dds = [DumbDevice(index=i, modalities=[MODALITIES[(i - 1) % 3]])
                    for i in range(1, 6)]
        for dd in self.dds:
            dd.current_scores = {dd.modalities[0]: 0.9}
        record = enroll(user_id="user1",
                        strategy=CaseStrategy(case=Case.CASE2),
                        params=ThresholdParams(t=2, n=5),
                        group=get_group("sim"), pd=self.pd, dds=self.dds,
                        rng=rng)
        self.sp.register_user(record)
        self.now = 0

    def run(self, sessions: int) -> None:
        for _ in range(sessions):
            self.now += 1
            _, challenge = request_challenge("user1", self.sp, now=self.now)
            flow = pd_run_authentication(self.pd, self.dds, challenge,
                                         now=self.now, rng=self.rng)
            result = self.sp.verify(flow[-1], now=self.now)
            if not result.payload["granted"]:
                sys.exit(f"session {self.now} denied: {result.payload}")


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def main() -> int:
    soak = Soak()
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
    print(json.dumps({"sessions": FILL + WARM + RUN,
                      "session_window": _SESSION_WINDOW,
                      "warm_run_bytes": middle - start,
                      "measured_run_bytes": end - middle,
                      "bytes_per_session": per_session,
                      "bound": BOUND, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
