"""Soak check: a long-lived service provider and gateway keep bounded memory.

For each case and score mode in COMBINATIONS, one service provider, one
gateway, five devices (t=2) on the `sim` group and, in the cloud score
modes, one scoring service authenticate session after session, with `now`
advancing by one each session. The first FILL sessions run untraced and
fill every bounded window: each DeviceSigner's session ids, the
provider's nonces, the plain scoring service's scores and every
transcript. Then `tracemalloc` traces two runs. The first, one
signer window long, replaces every object those windows hold with one
allocated under tracing; until then each evicted object was allocated
untraced, so freeing it does not lower traced memory and a bounded window
would read as ~60 B of growth per session. The second run, of RUN
sessions, must grow traced memory by less than BOUND bytes per session;
keeping one session-id string per session (~60 B) would fail that.
A traced session costs about 30 times an untraced one, so each
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

from faskit.algebra import get_group
from faskit.authscore import FusionPolicy, Modality, phe_keygen
from faskit.fuzzyextractor import CodeParams
from faskit.protocol import (Case, CaseStrategy, DumbDevice, FaspService,
                             PersonalDevice, ServiceProvider, conclude,
                             enroll, pd_run_authentication,
                             request_challenge)
from faskit.sharing import ThresholdParams
from faskit.thresholdsig import _SESSION_WINDOW

FILL = 1100      # more than _SESSION_WINDOW, so every window is full
WARM = _SESSION_WINDOW
RUN = 300
BOUND = 8        # bytes per session

MODALITIES = (Modality.GAIT, Modality.LOCATION, Modality.HEARTBEAT)
COMBINATIONS = ((Case.CASE2, "local-bypass"), (Case.CASE3, "local-bypass"),
                (Case.CASE2, "cloud-plain"), (Case.CASE2, "cloud-encrypted"))


class Soak:
    def __init__(self, case: Case, score_mode: str):
        rng = random.Random(1)
        self.rng = rng
        self.sp = ServiceProvider(sp_id="sp1", rng=rng)
        policy = FusionPolicy(weights=dict.fromkeys(MODALITIES, 1.0))
        self.pd = PersonalDevice(user_id="user1", policy=policy,
                                 score_mode=score_mode)
        self.dds = [DumbDevice(index=i, modalities=[MODALITIES[(i - 1) % 3]])
                    for i in range(1, 6)]
        group = get_group("sim")
        code = templates = None
        if case is Case.CASE3:
            code = CodeParams(m=group.q.bit_length(), r=5)
            templates = {dd.index: format(rng.getrandbits(
                code.codeword_length), f"0{code.codeword_length}b")
                for dd in self.dds}
        for dd in self.dds:
            dd.current_scores = {dd.modalities[0]: 0.9}
            if templates:
                dd.current_template = templates[dd.index]
        paillier = phe_keygen(64, rng) if score_mode == "cloud-encrypted" \
            else None
        record = enroll(user_id="user1",
                        strategy=CaseStrategy(case=case, code=code),
                        params=ThresholdParams(t=2, n=5), group=group,
                        pd=self.pd, dds=self.dds, rng=rng,
                        enrolment_templates=templates,
                        paillier_keypair=paillier)
        self.sp.register_user(record)
        self.fasp = None
        if score_mode != "local-bypass":
            self.fasp = FaspService()
            self.fasp.register_policy("user1", policy, paillier.public
                                      if paillier else None)
        self.now = 0

    def run(self, sessions: int) -> None:
        for _ in range(sessions):
            self.now += 1
            _, challenge = request_challenge("user1", self.sp, now=self.now)
            flow = pd_run_authentication(self.pd, self.dds, challenge,
                                         now=self.now, rng=self.rng,
                                         fasp=self.fasp)
            result = conclude(self.pd, self.sp, flow, now=self.now)[-1]
            if not result.payload["granted"]:
                sys.exit(f"session {self.now} denied: {result.payload}")


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def check(case: Case, score_mode: str) -> bool:
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
    print(json.dumps({"case": case.value, "score_mode": score_mode,
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
