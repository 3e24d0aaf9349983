"""Deterministic scenario harness for the authentication protocol.

A ScenarioConfig is one user's set-up (case, t of n devices, fusion
policy) and the trials to run on it. It checks itself when built,
`replace` copies included, and cannot be changed afterwards, not even
inside its weights or present_devices. A _Trial,
the one builder of a user's world, enrols a fresh user and its devices;
each trial runs one authentication attempt on its own _Trial and
classifies the outcome, and the CLI's enroll and auth run on one. All of
a trial's draws come from random.Random(scenario_seed XOR trial_index),
in a fixed, documented order:

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
import io
import json
import random
from collections import Counter, namedtuple
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType

from .algebra import MALFORMED, get_group, read_hex, typed
from .authscore import (FusionPolicy, Modality, max_fused_plaintext,
                        phe_encrypt, phe_keygen)
from .errors import ConfigError, NondeterminismError
from .fuzzyextractor import CodeParams, fe_enroll, fe_reproduce
# Every trial runs through authenticate; pd_run_authentication is imported
# only for authbench's tracer, which swaps it through vars(simulator).
from .protocol import (Case, CaseStrategy, DumbDevice, FaspService, Message,
                       MessageType, PersonalDevice, ServiceProvider,
                       authenticate, enroll, message_to_wire,
                       pd_run_authentication, plaintext_scores)
from .sharing import ThresholdParams

DEFAULT_WEIGHTS = {"gait": 0.4, "location": 0.3, "heartbeat": 0.3}

# Ceilings on the fields that size the work, checked before a device exists.
SIZE_CAPS = {"n": 100, "code_r": 101, "paillier_bits": 4096}

OUT_OF_SCOPE_NOTE = ("availability threats (DoS against devices or "
                     "services) are not simulated")


@dataclass(frozen=True)
class ScenarioConfig:
    case: int = 3
    t: int = 2
    n: int = 5
    present_devices: tuple | None = None
    p_flip: float = 0.0
    impostor: bool = False
    adversary: str = "none"
    adversary_k: int = 0
    score_mode: str = "local-bypass"
    weights: MappingProxyType = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS), hash=False)
    theta: float = 0.7
    staleness_max: int = 10
    group: str = "sim"
    code_r: int = 5
    pd_holds_share: bool = False
    paillier_bits: int = 64
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        """Run the rule table in order; the first failing rule becomes a
        ConfigError that names its field. A config that passes keeps its
        devices as a tuple and its weights as a read-only copy, which a
        `replace` copy hands back here and the rules read as a dict."""
        if type(self.weights) is MappingProxyType:
            object.__setattr__(self, "weights", dict(self.weights))
        for name, check in self._rules():
            try:
                check()
            except MALFORMED as exc:
                raise ConfigError(f"{name}: {exc}") from None
        if self.present_devices is not None:
            object.__setattr__(self, "present_devices",
                               tuple(self.present_devices))
        object.__setattr__(self, "weights",
                           MappingProxyType(dict(self.weights)))

    def _rules(self):
        """(field, check) rows; a check fails by raising. A rule that a
        domain type owns is checked by building that type, and a row may
        rely on every row before it having passed."""
        yield "case", lambda: Case(typed(self.case, int))
        yield "n", lambda: ThresholdParams(t=0, n=typed(self.n, int))
        yield "t", lambda: ThresholdParams(t=typed(self.t, int), n=self.n)
        yield "p_flip", lambda: _require(
            0 <= typed(self.p_flip, int, float) <= 0.5,
            "must lie in [0, 0.5]")
        yield "adversary", lambda: _require(
            self.adversary in _ADVERSARIES,
            f"unknown value {self.adversary!r}")
        yield "adversary_k", lambda: _require(
            0 <= typed(self.adversary_k, int) <= self.n, "need 0 <= k <= n")
        yield "adversary", lambda: _require(
            self.adversary != "score_inflate"
            or self.score_mode != "local-bypass",
            "score_inflate needs a cloud score_mode")
        yield "adversary", lambda: _require(
            self.adversary != "tamper_partial" or self.case != 1,
            "tamper_partial needs case 2 or 3")
        yield "weights", lambda: typed(self.weights, dict)
        for name, weight in self.weights.items():
            yield f"weights.{name}", lambda name=name, weight=weight: (
                Modality(name), typed(weight, int, float))
        yield "weights", lambda: FusionPolicy(weights=self.weights)
        yield "staleness_max", lambda: FusionPolicy(
            weights=self.weights, staleness_max=self.staleness_max)
        yield "theta", lambda: (typed(self.theta, int, float),
                                self.policy())
        yield "score_mode", lambda: PersonalDevice(
            user_id="", policy=self.policy(), score_mode=self.score_mode)
        yield "group", lambda: get_group(self.group)
        yield "n", lambda: _require(self.n < get_group(self.group).q,
                                    "must be below the group order q")
        for name, cap in SIZE_CAPS.items():
            yield name, lambda name=name, cap=cap: _require(
                typed(getattr(self, name), int) <= cap, f"must be <= {cap}")
        yield "code_r", lambda: CodeParams(m=1, r=self.code_r)
        yield "paillier_bits", self._check_paillier_bits
        yield "seed", lambda: _require(
            0 <= typed(self.seed, int) < 2 ** 64,
            "must be a 64-bit unsigned integer")
        yield "trials", lambda: _require(
            typed(self.trials, int) >= 0, "must be >= 0")
        yield "impostor", lambda: typed(self.impostor, bool)
        yield "pd_holds_share", lambda: typed(self.pd_holds_share, bool)
        yield "present_devices", lambda: _require(
            self.present_devices is None
            or {typed(i, int) for i in self.present_devices}
            <= set(self._device_indices()),
            "names a device that is not enrolled")

    def _check_paillier_bits(self) -> None:
        """At least 16; for cloud-encrypted scoring phe_keygen's n, always
        above 2^(bits-2), must also exceed the largest fused score."""
        least = 16
        if self.score_mode == "cloud-encrypted":
            bound = max_fused_plaintext(self.policy())
            least = max(least, (bound - 1).bit_length() + 2)
        _require(self.paillier_bits >= least,
                 f"must be >= {least}")

    def _device_indices(self) -> list:
        start = 2 if self.pd_holds_share and self.case != 1 else 1
        return list(range(start, self.n + 1))

    def policy(self) -> FusionPolicy:
        return FusionPolicy(
            weights={Modality(k): float(v) for k, v in self.weights.items()},
            theta=self.theta, staleness_max=self.staleness_max)

    def to_json(self) -> dict:
        obj = {**vars(self), "weights": dict(self.weights)}
        if self.present_devices is not None:
            obj["present_devices"] = list(self.present_devices)
        return obj

    def __reduce__(self):
        # copy and pickle go through the JSON form: a mappingproxy does
        # not pickle.
        return type(self).from_json, (self.to_json(),)

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown config field")
        return cls(**obj)


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
        return {**asdict(self), "denials": self.trials - self.grants,
                "grant_rate": self.grant_rate}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise ValueError(reason)


def _draw_bits(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b")


def _flip_noise(rng: random.Random, bits: str, p_flip: float) -> str:
    return "".join("1" if (b == "0") == (rng.random() < p_flip) else "0"
                   for b in bits)


class _Trial:
    """A user's world and all per-trial state: entities, pre-drawn
    inputs, substreams, every draw taken from `master`."""

    def __init__(self, config: ScenarioConfig, master: random.Random):
        self.config = config
        self.group = get_group(config.group)
        self.code = CodeParams(m=self.group.q.bit_length(), r=config.code_r)
        self.policy = config.policy()
        self.adversary = _ADVERSARIES[config.adversary]

        mods = sorted(self.policy.weights, key=lambda m: m.value)
        self.dds = [DumbDevice(index=i, modalities=[mods[pos % len(mods)]])
                    for pos, i in enumerate(config._device_indices())]
        length = self.code.codeword_length

        # Stage 1: enrolment templates.
        enrolment = {}
        if config.case == 3:
            enrolment = {dd.index: _draw_bits(master, length)
                         for dd in self.dds}

        # Stage 2: authentication-time sensor draws, straight into what
        # each device measures right now. Adversarial contexts (impostor,
        # thief with stolen devices, score forger) measure the wrong
        # person: independent templates and low scores.
        rogue_sensors = config.impostor or self.adversary.rogue_sensors
        low, high = (0.0, 0.4) if rogue_sensors else (0.8, 1.0)
        for dd in self.dds:
            if config.case == 3:
                dd.current_template = _draw_bits(master, length) \
                    if rogue_sensors else _flip_noise(
                        master, enrolment[dd.index], config.p_flip)
            dd.current_scores = {dd.modalities[0]: master.uniform(low, high)}

        # Stages 3 and 4: substream seeds, in this order. The substreams
        # are of the master's kind; SystemRandom ignores the seed it gets.
        self.rng_nonce = type(master)(master.getrandbits(64))
        self.rng_keys = type(master)(master.getrandbits(64))

        # Entities.
        strategy = CaseStrategy(
            case=Case(config.case),
            pd_holds_share=config.pd_holds_share and config.case != 1,
            code=self.code if config.case == 3 else None)
        self.pd = PersonalDevice(user_id="user1", policy=self.policy,
                                 score_mode=config.score_mode)
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
            enrolment_templates=enrolment or None,
            paillier_keypair=paillier)
        self.sp = ServiceProvider(sp_id="sp1", rng=self.rng_nonce)
        self.sp.register_user(record)
        if self.fasp is not None:
            self.fasp.register_policy(
                "user1", self.policy,
                paillier_pub=paillier.public if paillier else None)

    def live_devices(self) -> list:
        present = self.config.present_devices
        if present is None:
            return list(self.dds)
        return [dd for dd in self.dds if dd.index in present]


def _run_normal_trial(trial: _Trial) -> list:
    """Genuine/impostor/eavesdrop/tamper/score_inflate flow: full five
    steps, the session's verdict last."""
    make_hook = trial.adversary.make_hook
    return authenticate(trial.pd, trial.live_devices(), trial.sp, now=0,
                        rng=trial.rng_nonce, fasp=trial.fasp,
                        transit_hook=make_hook(trial) if make_hook else None)


def _run_replay_trial(trial: _Trial) -> list:
    """Genuine flow, then the AuthResponse the SP judged is submitted
    again. The trial outcome is the fate of the replayed submission."""
    messages = _run_normal_trial(trial)
    if messages[-1].sender != trial.sp.sp_id:   # the gateway denied
        return messages
    return messages + [messages[-2], trial.sp.verify(messages[-2], now=0)]


def _run_stolen_k_trial(trial: _Trial) -> list:
    """A rogue gateway runs the public flow with only what a thief holds:
    the public key, commitments and leaked helper data, plus k stolen
    devices with their persistent state and the thief's own (impostor)
    readings and templates. Its policy keeps the weights but sets theta to
    0, so its gate opens on any score. It holds no PD share, so with
    k <= t it can never assemble a signature. Its traffic to the stolen
    devices stays off the recorded links: the trial records the request,
    the challenge, the session's verdict and, when the SP gave it, the
    AuthResponse it judged."""
    pd = trial.pd
    rogue = PersonalDevice(user_id=pd.user_id,
                           policy=replace(pd.policy, theta=0.0))
    rogue.entity_id = "rogue-pd"
    rogue.strategy = pd.strategy
    rogue.pubkey = pd.pubkey
    rogue.commitments = pd.commitments
    rogue.helper_store = pd.helper_store
    messages = authenticate(rogue, trial.dds[:trial.config.adversary_k],
                            trial.sp, now=0, rng=trial.rng_nonce)
    ending = messages[-2:] if messages[-1].sender == trial.sp.sp_id \
        else messages[-1:]
    return messages[:2] + ending


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
        s = (read_hex(msg.payload["s"]) + 1) % q
        return replace(msg, payload={**msg.payload, "s": format(s, "x")})

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
        return replace(msg, payload=forged)

    return hook


# A row per adversary: its trial runner, its transit-hook maker (trial ->
# hook, or None), whether its sensors measure someone else, and whether a
# grant counts toward FAR.
_Adversary = namedtuple("_Adversary", "run make_hook rogue_sensors counts_far",
                        defaults=(None, False, True))

_ADVERSARIES = {
    "none": _Adversary(_run_normal_trial, counts_far=False),
    "stolen_k": _Adversary(_run_stolen_k_trial, rogue_sensors=True),
    "tamper_partial": _Adversary(_run_normal_trial, _make_tamper_hook),
    "replay": _Adversary(_run_replay_trial),
    "eavesdrop": _Adversary(_run_normal_trial, counts_far=False),
    "score_inflate": _Adversary(_run_normal_trial, _make_score_inflate_hook,
                                rogue_sensors=True),
}
ADVERSARIES = tuple(_ADVERSARIES)


def _scan_plaintext_scores(messages, seen: dict) -> None:
    """Add to seen what a passive eavesdropper on the external links
    (gateway to SP and gateway to scoring service) saw in the clear."""
    for msg in messages:
        if msg.type not in (MessageType.SCORE_REQUEST,
                            MessageType.SCORE_RESPONSE,
                            MessageType.AUTH_REQUEST, MessageType.CHALLENGE,
                            MessageType.AUTH_RESPONSE,
                            MessageType.AUTH_RESULT):
            continue
        seen["external_messages_scanned"] += 1
        shown = plaintext_scores(msg)
        if shown:
            seen["plaintext_score_values"] += len(shown)
            seen["message_types_with_plaintext_scores"].add(msg.type.value)


def run_scenario(config: ScenarioConfig, transcript=None) -> SimReport:
    """Execute the configured trials; deterministic given the seed.

    `transcript`, when given, is a text stream the caller owns and
    closes; every message goes to it as one wire-format line, in the
    order the digest hashes them."""
    adversary = _ADVERSARIES[config.adversary]
    digest = hashlib.sha256()
    reasons = []
    message_counts = Counter()
    eavesdrop = None
    if config.adversary == "eavesdrop":
        eavesdrop = {"external_messages_scanned": 0,
                     "plaintext_score_values": 0,
                     "message_types_with_plaintext_scores": set()}

    for trial_index in range(config.trials):
        messages = adversary.run(
            _Trial(config, random.Random(config.seed ^ trial_index)))
        if eavesdrop is not None:
            _scan_plaintext_scores(messages, eavesdrop)
        # The verdict is last; a grant's reason is "ok", a denial's never.
        reasons.append(messages[-1].payload["reason"])
        for msg in messages:
            message_counts[msg.type.value] += 1
            line = message_to_wire(msg) + "\n"
            digest.update(line.encode("utf-8"))
            if transcript is not None:
                transcript.write(line)

    if eavesdrop is not None:
        eavesdrop["message_types_with_plaintext_scores"] = sorted(
            eavesdrop["message_types_with_plaintext_scores"])
    reason_counts = Counter(reasons)
    grants = reason_counts["ok"]
    adversarial = config.impostor or adversary.counts_far
    frr = (config.trials - grants) / config.trials \
        if config.trials and not adversarial else None
    far = grants / config.trials if config.trials and adversarial else None
    return SimReport(
        config=config.to_json(),
        trials=config.trials,
        grants=grants,
        frr=frr,
        far=far,
        reason_counts=dict(reason_counts),
        outcomes=reasons,
        message_counts=dict(message_counts),
        transcript_digest=digest.hexdigest(),
        eavesdrop=eavesdrop,
        metadata={"out_of_scope": [OUT_OF_SCOPE_NOTE],
                  "draw_order": "template bits, noise bits and scores, "
                                "nonce substream, keygen substream"},
    )


def estimate_rates(config: ScenarioConfig, sweep) -> list:
    """FRR/FAR per template-noise level.

    For each p_flip in the sweep, FRR comes from a genuine run and FAR
    from an impostor twin (independent uniform templates and low scores)
    with the same seed and trial count. Stable estimates want at least
    1000 trials; smaller counts are fine for smoke runs. Every sweep
    value passes the p_flip rule before the first run.
    """
    genuines = [replace(config, p_flip=p_flip, impostor=False,
                        adversary="none") for p_flip in sweep]
    rows = []
    for genuine in genuines:
        frr = run_scenario(genuine).frr
        far = run_scenario(replace(genuine, impostor=True)).far
        rows.append({"p_flip": genuine.p_flip, "frr": frr, "far": far})
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

    A match costs one run that keeps no transcript. On a mismatch the
    scenario is run twice more, each run's transcript kept; if those two
    diverge from each other, the error names the first divergent message,
    otherwise the recorded digest is stale for this configuration.
    """
    report = run_scenario(config)
    if report.transcript_digest == expected_digest:
        return True
    first, second = io.StringIO(), io.StringIO()
    run_scenario(config, first)
    run_scenario(config, second)
    lines_a = first.getvalue().splitlines()
    lines_b = second.getvalue().splitlines()
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
