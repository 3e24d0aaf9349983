"""The benchmark's three workloads, driven through faskit's public API.

A workload object's constructor is its set-up: group validation,
long-lived enrolment and Paillier key generation. It then runs attempts
0, 1, 2, ... in order; attempt i depends only on the seed and on the
attempts before it, so one seed always replays the same transcripts.

Per attempt the caller runs `prepare(i)` (draws the sensor inputs; not
timed), then `run(i)` (the attempt itself; timed), then `outcome`,
`digest` and, for a grant, `evidence` on what `run` returned. After the
timed phase `reverify(i, evidence)` re-checks each grant.

Functions that the trace wraps are looked up on their modules at call
time (`protocol.enroll`, `simulator.run_scenario`, ...), so a traced run
sees every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from faskit import authscore, protocol, simulator, thresholdsig
from faskit.algebra import get_group
from faskit.authscore import FusionPolicy, Modality
from faskit.fuzzyextractor import CodeParams
from faskit.protocol import (Case, CaseStrategy, DumbDevice, FaspService,
                             MessageType, PersonalDevice, ServiceProvider)
from faskit.sharing import ThresholdParams

from tracing import swap

GENUINE = "genuine"
IMPOSTOR = "impostor"
TAMPER = "tamper_partial"
ADVERSARIAL = (IMPOSTOR, TAMPER)

POLICY = FusionPolicy(weights={Modality.GAIT: 0.4, Modality.LOCATION: 0.3,
                               Modality.HEARTBEAT: 0.3})
MODALITIES = sorted(POLICY.weights, key=lambda m: m.value)
# Genuine sensors score in [0.8, 1.0], as in the simulator's sensor model.
GENUINE_SCORES = (0.8, 1.0)


def signature_valid(pubkey, sp_id: str, response) -> bool:
    """Check an AuthResponse under `pubkey` with `thresholdsig.verify`,
    and with the Schnorr equation g^s = R * y^c written out here, so that
    a fault in `verify` itself cannot pass a bad signature."""
    payload = response.payload
    sig = thresholdsig.Signature.from_json(payload["signature"])
    message = protocol.signing_message_bytes(sp_id,
                                             bytes.fromhex(payload["nonce"]))
    group = pubkey.group
    width = (group.p.bit_length() + 7) // 8
    c = int.from_bytes(hashlib.sha256(
        sig.R.to_bytes(width, "big") + pubkey.y.to_bytes(width, "big")
        + message).digest(), "big") % group.q
    return (thresholdsig.verify(pubkey, message, sig)
            and 0 < sig.R < group.p and 0 <= sig.s < group.q
            and pow(group.g, sig.s, group.p)
            == sig.R * pow(pubkey.y, c, group.p) % group.p)


class SimTrials:
    """`run_scenario` trials: CASE3, t=2, n=5, r=5, p_flip=0.08, local
    scoring on the `sim` group, cycling genuine, impostor, tamper_partial.

    Attempt i is the one-trial scenario with seed `seed ^ i`, which draws
    exactly what trial i of a `seed` scenario would.
    """

    name = "sim-trials"
    # Latency is sampled per genuine, impostor, tamper_partial cycle: a
    # per-trial median would fall between impostors (stopped at the gate
    # in under 1 ms) and full ceremonies, and swing with host speed.
    cycle = 3
    warmup = 30  # whole cycles, so timed attempts start a cycle

    def __init__(self, seed: int, sample: int = 0):
        # Nothing long-lived: every trial enrols its own user. `sample`
        # only varies seeded set-up, of which this workload has none.
        self.seed = seed
        get_group("sim")
        self._config = None

    def kind(self, i: int) -> str:
        return (GENUINE, IMPOSTOR, TAMPER)[i % 3]

    def config(self, i: int) -> simulator.ScenarioConfig:
        kind = self.kind(i)
        return simulator.ScenarioConfig(
            case=3, t=2, n=5, code_r=5, p_flip=0.08, group="sim",
            score_mode="local-bypass", impostor=kind == IMPOSTOR,
            adversary=TAMPER if kind == TAMPER else "none",
            seed=self.seed ^ i, trials=1)

    def prepare(self, i: int) -> None:
        self._config = self.config(i)

    def run(self, i: int):
        return simulator.run_scenario(self._config)

    def outcome(self, report) -> str:
        return report.outcomes[0]

    def digest(self, report) -> str:
        return report.transcript_digest

    def evidence(self, i: int, report):
        return report.transcript_digest

    def reverify(self, i: int, digest: str) -> bool:
        """Re-run trial i, capturing the registered key and the response
        the SP granted, and check the signature independently."""
        records, responses = [], []
        enroll = vars(simulator)["enroll"]
        sp_verify = vars(ServiceProvider)["verify"]

        def capture_enroll(*args, **kwargs):
            records.append(enroll(*args, **kwargs))
            return records[-1]

        def capture_verify(sp, response, now):
            responses.append((sp.sp_id, response))
            return sp_verify(sp, response, now)

        with swap(simulator, "enroll", capture_enroll), \
                swap(ServiceProvider, "verify", capture_verify):
            report = simulator.run_scenario(self.config(i))
        return (report.transcript_digest == digest and len(records) == 1
                and len(responses) == 1
                and signature_valid(records[0].pubkey, *responses[0]))


@dataclass
class _User:
    pd: PersonalDevice
    dds: list
    pubkey: object          # the GroupPublicKey the SP registered
    templates: dict         # enrolment template per device (CASE3)


class _Sessions:
    """One SP with users enrolled once at set-up, then genuine sessions
    round-robin across the users, each with fresh sensor readings."""

    name = ""
    users = 0
    case = Case.CASE3
    group_name = "sim"
    score_mode = "local-bypass"
    paillier_bits = 0
    p_flip = 0.0
    t, n, code_r = 2, 5, 5
    cycle = 1
    warmup = 2

    def __init__(self, seed: int, sample: int = 0):
        tag = f"{self.name}:{seed}:{sample}"
        self._inputs = random.Random(tag + ":inputs")
        keys = random.Random(tag + ":keys")
        self._flow_rng = random.Random(tag + ":flow")
        self.group = get_group(self.group_name)
        self.code = CodeParams(m=self.group.q.bit_length(), r=self.code_r)
        self.sp = ServiceProvider(sp_id="sp1",
                                  rng=random.Random(tag + ":sp"))
        self.fasp = FaspService() if self.paillier_bits else None
        self._users = [self._enroll(u, keys) for u in range(self.users)]

    def _enroll(self, u: int, keys: random.Random) -> _User:
        user_id = f"user{u}"
        pd = PersonalDevice(user_id=user_id, policy=POLICY,
                            score_mode=self.score_mode)
        dds = [DumbDevice(index=i, modalities=[MODALITIES[(i - 1) % 3]])
               for i in range(1, self.n + 1)]
        templates = {}
        if self.case is Case.CASE3:
            length = self.code.codeword_length
            templates = {dd.index: format(self._inputs.getrandbits(length),
                                          f"0{length}b") for dd in dds}
        paillier = None
        if self.paillier_bits:
            paillier = authscore.phe_keygen(self.paillier_bits, keys)
        strategy = CaseStrategy(
            case=self.case,
            code=self.code if self.case is Case.CASE3 else None)
        record = protocol.enroll(
            user_id=user_id, strategy=strategy,
            params=ThresholdParams(t=self.t, n=self.n), group=self.group,
            pd=pd, dds=dds, rng=keys, enrolment_templates=templates or None,
            paillier_keypair=paillier)
        self.sp.register_user(record)
        if self.fasp is not None:
            self.fasp.register_policy(user_id, POLICY,
                                      paillier_pub=paillier.public)
        return _User(pd, dds, record.pubkey, templates)

    def kind(self, i: int) -> str:
        return GENUINE

    def prepare(self, i: int) -> None:
        rng = self._inputs
        low, high = GENUINE_SCORES
        for dd in self._users[i % self.users].dds:
            dd.current_scores = {m: rng.uniform(low, high)
                                 for m in dd.modalities}
            if self.case is Case.CASE3:
                enrolled = self._users[i % self.users].templates[dd.index]
                dd.current_template = "".join(
                    ("1" if b == "0" else "0") if rng.random() < self.p_flip
                    else b for b in enrolled)

    def run(self, i: int) -> list:
        user = self._users[i % self.users]
        req, challenge = protocol.request_challenge(user.pd.user_id, self.sp,
                                                    now=i)
        flow = protocol.pd_run_authentication(
            user.pd, user.dds, challenge, now=i, rng=self._flow_rng,
            fasp=self.fasp)
        messages = [req, challenge, *flow]
        if flow[-1].type is MessageType.AUTH_RESPONSE:
            messages.append(self.sp.verify(flow[-1], now=i))
        return messages

    def outcome(self, messages: list) -> str:
        payload = messages[-1].payload
        return "ok" if payload["granted"] else payload["reason"]

    def digest(self, messages: list) -> str:
        h = hashlib.sha256()
        for msg in messages:
            h.update(protocol.message_to_wire(msg).encode("utf-8") + b"\n")
        return h.hexdigest()

    def evidence(self, i: int, messages: list):
        response = next(m for m in messages
                        if m.type is MessageType.AUTH_RESPONSE)
        return i % self.users, response

    def reverify(self, i: int, evidence) -> bool:
        u, response = evidence
        return signature_valid(self._users[u].pubkey, self.sp.sp_id,
                               response)


class ProdSessions(_Sessions):
    """Deployed-gateway traffic: 4 users on `prod2048`, CASE3, t=2, n=5,
    fresh noisy templates (p_flip=0.02) and scores every session."""

    name = "prod-sessions"
    users = 4
    group_name = "prod2048"
    p_flip = 0.02


class CloudEncSessions(_Sessions):
    """Cloud-encrypted scoring: 2 users on `sim`, CASE2, t=2, n=5, each
    with a Paillier key made at set-up. 1024-bit keys keep an attempt
    near 0.1 s, so a run gathers the 100 samples its p90 needs."""

    name = "cloud-enc-sessions"
    users = 2
    case = Case.CASE2
    score_mode = "cloud-encrypted"
    paillier_bits = 1024


WORKLOADS = {cls.name: cls for cls in (SimTrials, ProdSessions,
                                       CloudEncSessions)}
