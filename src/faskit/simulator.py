"""Deterministic scenario harness for the authentication protocol.

Each trial builds a fresh user (enrolment included), runs one
authentication attempt, and classifies the outcome. Everything random
flows from one per-trial generator seeded with scenario_seed XOR
trial_index; within a trial the draws happen in a fixed, documented
order:

  1. enrolment template bits, device by device (CASE3 only),
  2. authentication-time sensor draws per device: template noise bits
     (or a fresh impostor template) then modality scores,
  3. the nonce substream seed (SP challenge nonce, signing nonces),
  4. the key-generation substream seed (dealer secret, polynomial
     coefficients, Paillier primes).

Identical configs therefore produce byte-identical reports and
transcripts. The genuine sensor model: the authentication template is the
enrolment template XOR per-bit Bernoulli(p_flip) noise, and genuine
modality scores are uniform in [0.8, 1.0]; impostors get independent
uniform templates and scores uniform in [0.0, 0.4].

Availability threats (device jamming, service DoS) are out of scope and
recorded as such in the report metadata rather than simulated.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, replace

from .algebra import get_group, group_names
from .authscore import FusionPolicy, Modality, phe_encrypt, phe_keygen
from .errors import ConfigError, NondeterminismError
from .fuzzyextractor import CodeParams, fe_enroll, fe_reproduce
from .protocol import (Case, CaseStrategy, DumbDevice, FaspService, Message,
                       MessageType, PersonalDevice, ServiceProvider, enroll,
                       message_to_wire, pd_run_authentication,
                       request_challenge)
from .sharing import ThresholdParams

ADVERSARIES = ("none", "stolen_k", "tamper_partial", "replay", "eavesdrop",
               "score_inflate")
SCORE_MODES = ("local-bypass", "cloud-plain", "cloud-encrypted")

DEFAULT_WEIGHTS = {"gait": 0.4, "location": 0.3, "heartbeat": 0.3}

OUT_OF_SCOPE_NOTE = ("availability threats (DoS against devices or "
                     "services) are not simulated")


@dataclass
class ScenarioConfig:
    case: int = 3
    t: int = 2
    n: int = 5
    present_devices: list | None = None
    p_flip: float = 0.0
    impostor: bool = False
    adversary: str = "none"
    adversary_k: int = 0
    score_mode: str = "local-bypass"
    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    theta: float = 0.7
    staleness_max: int = 10
    group: str = "sim"
    code_r: int = 5
    pd_holds_share: bool = False
    paillier_bits: int = 64
    seed: int = 0
    trials: int = 100

    def validate(self) -> None:
        if self.case not in (1, 2, 3):
            raise ConfigError("case: must be 1, 2 or 3")
        if self.t < 0:
            raise ConfigError("t: must be >= 0")
        if self.n < 1:
            raise ConfigError("n: must be >= 1")
        if self.t + 1 > self.n:
            raise ConfigError("t: need t+1 <= n")
        if not 0.0 <= self.p_flip <= 0.5:
            raise ConfigError("p_flip: must lie in [0, 0.5]")
        if self.adversary not in ADVERSARIES:
            raise ConfigError(
                f"adversary: unknown value {self.adversary!r}")
        if not 0 <= self.adversary_k <= self.n:
            raise ConfigError("adversary_k: need 0 <= k <= n")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(
                f"score_mode: unknown value {self.score_mode!r}")
        if self.adversary == "score_inflate" \
                and self.score_mode == "local-bypass":
            raise ConfigError(
                "adversary: score_inflate needs a cloud score_mode")
        if self.adversary == "tamper_partial" and self.case == 1:
            raise ConfigError("adversary: tamper_partial needs case 2 or 3")
        if not self.weights or all(w <= 0 for w in self.weights.values()):
            raise ConfigError("weights: need at least one positive weight")
        if any(w < 0 for w in self.weights.values()):
            raise ConfigError("weights: must be non-negative")
        for name in self.weights:
            try:
                Modality(name)
            except ValueError:
                raise ConfigError(f"weights.{name}: unknown modality")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta: must lie in [0, 1]")
        if self.staleness_max < 0:
            raise ConfigError("staleness_max: must be >= 0")
        if self.group not in group_names():
            raise ConfigError(
                f"group: unknown parameter set {self.group!r}")
        if self.code_r < 1 or self.code_r % 2 == 0:
            raise ConfigError("code_r: must be odd and >= 1")
        if self.paillier_bits < 16:
            raise ConfigError("paillier_bits: must be >= 16")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        if self.trials < 0:
            raise ConfigError("trials: must be >= 0")
        if self.present_devices is not None:
            valid = set(self._device_indices())
            bad = [i for i in self.present_devices if i not in valid]
            if bad:
                raise ConfigError(
                    f"present_devices: indices {bad} out of range")

    def _device_indices(self) -> list:
        start = 2 if self.pd_holds_share and self.case != 1 else 1
        return list(range(start, self.n + 1))

    def policy(self) -> FusionPolicy:
        return FusionPolicy(
            weights={Modality(k): float(v) for k, v in self.weights.items()
                     if v > 0},
            theta=self.theta, staleness_max=self.staleness_max)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown config field")
        config = cls(**obj)
        config.validate()
        return config


@dataclass
class SimReport:
    config: dict
    trials: int
    grants: int
    frr: float | None
    far: float | None
    reason_counts: dict
    outcomes: list
    message_counts: dict
    transcript_digest: str
    eavesdrop: dict | None
    metadata: dict

    @property
    def grant_rate(self) -> float:
        return self.grants / self.trials if self.trials else 0.0

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "trials": self.trials,
            "grants": self.grants,
            "denials": self.trials - self.grants,
            "grant_rate": self.grant_rate,
            "frr": self.frr,
            "far": self.far,
            "reason_counts": dict(sorted(self.reason_counts.items())),
            "outcomes": self.outcomes,
            "message_counts": dict(sorted(self.message_counts.items())),
            "transcript_digest": self.transcript_digest,
            "eavesdrop": self.eavesdrop,
            "metadata": self.metadata,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))


def _draw_bits(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b")


def _flip_noise(rng: random.Random, bits: str, p_flip: float) -> str:
    return "".join("1" if (b == "0") == (rng.random() < p_flip) else "0"
                   for b in bits)


class _Trial:
    """All per-trial state: entities, pre-drawn inputs, substreams."""

    def __init__(self, config: ScenarioConfig, trial_index: int):
        self.config = config
        self.index = trial_index
        self.group = get_group(config.group)
        self.code = CodeParams(m=self.group.q.bit_length(), r=config.code_r)
        self.policy = config.policy()
        master = random.Random(config.seed ^ trial_index)

        indices = config._device_indices()
        mods = sorted(self.policy.weights, key=lambda m: m.value)

        # Stage 1: enrolment templates.
        self.enrol_templates = {}
        if config.case == 3:
            for i in indices:
                self.enrol_templates[i] = _draw_bits(
                    master, self.code.codeword_length)

        # Stage 2: authentication-time sensor draws. Adversarial contexts
        # (impostor, thief with stolen devices, score forger) measure the
        # wrong person: independent templates and low scores.
        rogue_sensors = config.impostor or config.adversary in (
            "stolen_k", "score_inflate")
        self.auth_templates = {}
        self.auth_scores = {}
        for pos, i in enumerate(indices):
            if config.case == 3:
                if rogue_sensors:
                    self.auth_templates[i] = _draw_bits(
                        master, self.code.codeword_length)
                else:
                    self.auth_templates[i] = _flip_noise(
                        master, self.enrol_templates[i], config.p_flip)
            modality = mods[pos % len(mods)]
            low, high = (0.0, 0.4) if rogue_sensors else (0.8, 1.0)
            self.auth_scores[i] = {modality: master.uniform(low, high)}

        # Stages 3 and 4: substream seeds, in this order.
        self.rng_nonce = random.Random(master.getrandbits(64))
        self.rng_keys = random.Random(master.getrandbits(64))

        # Entities.
        strategy = CaseStrategy(
            case=Case(config.case),
            pd_holds_share=config.pd_holds_share and config.case != 1,
            code=self.code if config.case == 3 else None)
        self.pd = PersonalDevice(user_id="user1", policy=self.policy,
                                 score_mode=config.score_mode)
        self.dds = []
        for pos, i in enumerate(indices):
            dd = DumbDevice(index=i, modalities=[mods[pos % len(mods)]])
            self.dds.append(dd)
        self.fasp = None
        paillier = None
        if config.score_mode != "local-bypass":
            self.fasp = FaspService()
        if config.score_mode == "cloud-encrypted":
            paillier = phe_keygen(config.paillier_bits, self.rng_keys)
        record = enroll(
            user_id="user1", strategy=strategy,
            params=ThresholdParams(t=config.t, n=config.n),
            group=self.group, pd=self.pd, dds=self.dds, rng=self.rng_keys,
            enrolment_templates=self.enrol_templates or None,
            paillier_keypair=paillier)
        self.sp = ServiceProvider(sp_id="sp1", rng=self.rng_nonce)
        self.sp.register_user(record)
        if self.fasp is not None:
            self.fasp.register_policy(
                "user1", self.policy,
                paillier_pub=paillier.public if paillier else None)

        # Load the sensors with what they would measure right now.
        for dd in self.dds:
            dd.current_scores = dict(self.auth_scores[dd.index])
            dd.current_template = self.auth_templates.get(dd.index)

    def live_devices(self) -> list:
        present = self.config.present_devices
        if present is None:
            return list(self.dds)
        return [dd for dd in self.dds if dd.index in present]


def _run_normal_trial(trial: _Trial, transit_hook=None) -> tuple:
    """Genuine/impostor/eavesdrop/tamper/score_inflate flow: full five
    steps, outcome taken from the final AuthResult."""
    req, challenge = request_challenge("user1", trial.sp, now=0)
    messages = [req, challenge]
    flow = pd_run_authentication(
        trial.pd, trial.live_devices(), challenge, now=0,
        rng=trial.rng_nonce, fasp=trial.fasp, transit_hook=transit_hook)
    messages.extend(flow)
    last = flow[-1]
    if last.type is MessageType.AUTH_RESPONSE:
        result = trial.sp.verify(last, now=0)
        messages.append(result)
    else:
        result = last
    return messages, result


def _run_replay_trial(trial: _Trial) -> tuple:
    """Genuine flow, then the recorded AuthResponse is submitted again.
    The trial outcome is the fate of the replayed submission."""
    messages, first = _run_normal_trial(trial)
    responses = [m for m in messages
                 if m.type is MessageType.AUTH_RESPONSE]
    if not responses:
        return messages, first
    replayed = responses[-1]
    messages.append(replayed)
    result = trial.sp.verify(replayed, now=0)
    messages.append(result)
    return messages, result


def _run_stolen_k_trial(trial: _Trial) -> tuple:
    """A rogue gateway runs the public flow with only what a thief holds:
    the public key, commitments and leaked helper data, plus k stolen
    devices with their persistent state and the thief's own (impostor)
    readings and templates. Its policy keeps the weights but sets theta to
    0, so its gate opens on any score. It holds no PD share, so with
    k <= t it can never assemble a signature. Its traffic to the stolen
    devices stays off the recorded links: the trial records the request,
    the challenge, the flow's last message and the SP's verdict."""
    pd = trial.pd
    rogue = PersonalDevice(user_id=pd.user_id,
                           policy=replace(pd.policy, theta=0.0))
    rogue.entity_id = "rogue-pd"
    rogue.strategy = pd.strategy
    rogue.pubkey = pd.pubkey
    rogue.commitments = pd.commitments
    rogue.helper_store = pd.helper_store
    req, challenge = request_challenge(pd.user_id, trial.sp, now=0)
    last = pd_run_authentication(
        rogue, trial.dds[:trial.config.adversary_k], challenge, now=0,
        rng=trial.rng_nonce)[-1]
    messages = [req, challenge, last]
    result = last
    if last.type is MessageType.AUTH_RESPONSE:
        result = trial.sp.verify(last, now=0)
        messages.append(result)
    return messages, result


def _make_tamper_hook(trial: _Trial):
    """Flip the first round-2 response in transit: s -> s + 1 mod q."""
    state = {"done": False}
    q = trial.group.q

    def hook(msg: Message) -> Message:
        if state["done"] or msg.type is not MessageType.SIGN_ROUND2:
            return msg
        if "s" not in msg.payload:
            return msg
        state["done"] = True
        tampered = dict(msg.payload)
        tampered["s"] = format((int(tampered["s"], 16) + 1) % q, "x")
        return Message(type=msg.type, sender=msg.sender,
                       receiver=msg.receiver, session_id=msg.session_id,
                       payload=tampered)

    return hook


def _make_score_inflate_hook(trial: _Trial):
    """Replace the ScoreResponse with a forged high score. The forger
    knows the (public) Paillier key but not the fusion weights."""

    def hook(msg: Message) -> Message:
        if msg.type is not MessageType.SCORE_RESPONSE:
            return msg
        forged = dict(msg.payload)
        if "value" in forged:
            forged["value"] = 1.0
        if "ciphertext" in forged:
            pub = trial.pd.paillier.public
            big = phe_encrypt(10 ** 13 % pub.n, pub, trial.rng_nonce)
            forged["ciphertext"] = format(big, "x")
        return Message(type=msg.type, sender=msg.sender,
                       receiver=msg.receiver, session_id=msg.session_id,
                       payload=forged)

    return hook


def _scan_plaintext_scores(messages) -> dict:
    """What a passive eavesdropper on the external links (gateway to SP
    and gateway to scoring service) saw in the clear."""
    scanned = 0
    plaintext = 0
    types = set()
    for msg in messages:
        if msg.type not in (MessageType.SCORE_REQUEST,
                            MessageType.SCORE_RESPONSE,
                            MessageType.AUTH_REQUEST, MessageType.CHALLENGE,
                            MessageType.AUTH_RESPONSE,
                            MessageType.AUTH_RESULT):
            continue
        scanned += 1
        if msg.type is MessageType.SCORE_REQUEST \
                and "scores" in msg.payload:
            plaintext += len(msg.payload["scores"])
            types.add(msg.type.value)
        if msg.type is MessageType.SCORE_RESPONSE \
                and "value" in msg.payload:
            plaintext += 1
            types.add(msg.type.value)
    return {"external_messages_scanned": scanned,
            "plaintext_score_values": plaintext,
            "message_types_with_plaintext_scores": sorted(types)}


def run_scenario(config: ScenarioConfig, transcript_path=None) -> SimReport:
    """Execute the configured trials; deterministic given the seed."""
    config.validate()
    digest = hashlib.sha256()
    sink = open(transcript_path, "w") if transcript_path else None
    outcomes = []
    reason_counts: dict = {}
    message_counts: dict = {}
    grants = 0
    eavesdrop_report = None
    adversarial = config.impostor or config.adversary in (
        "stolen_k", "tamper_partial", "replay", "score_inflate")

    try:
        for trial_index in range(config.trials):
            trial = _Trial(config, trial_index)
            if config.adversary == "stolen_k":
                messages, result = _run_stolen_k_trial(trial)
            elif config.adversary == "replay":
                messages, result = _run_replay_trial(trial)
            elif config.adversary == "tamper_partial":
                messages, result = _run_normal_trial(
                    trial, transit_hook=_make_tamper_hook(trial))
            elif config.adversary == "score_inflate":
                messages, result = _run_normal_trial(
                    trial, transit_hook=_make_score_inflate_hook(trial))
            else:
                messages, result = _run_normal_trial(trial)

            if config.adversary == "eavesdrop":
                scan = _scan_plaintext_scores(messages)
                if eavesdrop_report is None:
                    eavesdrop_report = scan
                else:
                    for key in ("external_messages_scanned",
                                "plaintext_score_values"):
                        eavesdrop_report[key] += scan[key]
                    merged = set(eavesdrop_report[
                        "message_types_with_plaintext_scores"])
                    merged.update(
                        scan["message_types_with_plaintext_scores"])
                    eavesdrop_report[
                        "message_types_with_plaintext_scores"] = \
                        sorted(merged)

            granted = bool(result.payload["granted"])
            reason = result.payload["reason"]
            grants += granted
            reason_counts[reason] = reason_counts.get(reason, 0) + 1
            outcomes.append(reason if not granted else "ok")
            for msg in messages:
                name = msg.type.value
                message_counts[name] = message_counts.get(name, 0) + 1
                line = message_to_wire(msg)
                digest.update(line.encode("utf-8"))
                digest.update(b"\n")
                if sink is not None:
                    sink.write(line + "\n")
    finally:
        if sink is not None:
            sink.close()

    genuine = 0 if adversarial else config.trials
    frr = (config.trials - grants) / genuine if genuine else None
    far = grants / config.trials if adversarial and config.trials else None
    return SimReport(
        config=config.to_json(),
        trials=config.trials,
        grants=grants,
        frr=frr,
        far=far,
        reason_counts=reason_counts,
        outcomes=outcomes,
        message_counts=message_counts,
        transcript_digest=digest.hexdigest(),
        eavesdrop=eavesdrop_report,
        metadata={"out_of_scope": [OUT_OF_SCOPE_NOTE],
                  "draw_order": "template bits, noise bits and scores, "
                                "nonce substream, keygen substream"},
    )


def estimate_rates(config: ScenarioConfig, sweep) -> list:
    """FRR/FAR per template-noise level.

    For each p_flip in the sweep, FRR comes from a genuine run and FAR
    from an impostor twin (independent uniform templates and low scores)
    with the same seed and trial count. Stable estimates want at least
    1000 trials; smaller counts are fine for smoke runs.
    """
    rows = []
    for p_flip in sweep:
        genuine = ScenarioConfig(**{**config.to_json(), "p_flip": p_flip,
                                    "impostor": False, "adversary": "none"})
        impostor = ScenarioConfig(**{**config.to_json(), "p_flip": p_flip,
                                     "impostor": True, "adversary": "none"})
        frr = run_scenario(genuine).frr
        far = run_scenario(impostor).far
        rows.append({"p_flip": p_flip, "frr": frr, "far": far})
    return rows


def share_recovery_failure_rate(code: CodeParams, p_flip: float,
                                trials: int, seed: int = 0) -> float:
    """Empirical probability that one device fails to regenerate its
    exact key bits at the given per-bit noise level."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        key = _draw_bits(rng, code.m)
        w = _draw_bits(rng, code.codeword_length)
        helper = fe_enroll(key, w, code)
        w_prime = _flip_noise(rng, w, p_flip)
        if fe_reproduce(w_prime, helper) != key:
            failures += 1
    return failures / trials if trials else 0.0


def replay_transcript(expected_digest: str, config: ScenarioConfig) -> bool:
    """Re-run the scenario and check it reproduces the recorded digest.

    On mismatch the scenario is run twice more; if those two runs diverge
    from each other, the error names the first divergent message,
    otherwise the recorded digest is stale for this configuration.
    """
    report = run_scenario(config)
    if report.transcript_digest == expected_digest:
        return True
    lines_a = _transcript_lines(config)
    lines_b = _transcript_lines(config)
    for i, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            raise NondeterminismError(
                f"run diverges at message {i}: {a!r} != {b!r}")
    if len(lines_a) != len(lines_b):
        raise NondeterminismError(
            f"runs differ in length: {len(lines_a)} vs {len(lines_b)}")
    raise NondeterminismError(
        "runs are self-consistent but do not match the recorded digest "
        f"(got {report.transcript_digest}, expected {expected_digest})")


def _transcript_lines(config: ScenarioConfig) -> list:
    import io
    import os
    import tempfile
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        run_scenario(config, transcript_path=path)
        with io.open(path, "r") as handle:
            return handle.read().splitlines()
    finally:
        os.unlink(path)
