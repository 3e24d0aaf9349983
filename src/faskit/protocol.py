"""Entity state machines and the five-step frictionless authentication flow.

Entities: the user's gateway PersonalDevice (PD), sensor-bearing
DumbDevices (DDs) that talk only to the PD, the ServiceProvider (SP) that
challenges and verifies, and the FaspService that assists with score
fusion. All interaction is modeled as immutable Messages; every entity
keeps a transcript of the last 64 messages it sent and received, which is
what dispute resolution audits offline, and all the scoring service
retains of what it is sent.

A flow runs: AuthRequest -> Challenge -> sensor collection -> score
fusion and gating -> (only if the gate passes) the signing ceremony of
the active case strategy -> AuthResponse -> AuthResult, and
`authenticate` runs it as one call. The ceremony erases the nonces it
drew, whether it signs or fails; enroll writes every share slot,
replacing any earlier enrolment.

Case strategies, which differ only in where the signing key lives:
  CASE1 - the one-of-one sharing (t=0, n=1): the PD holds the only share,
          which is the whole private key, and signs alone.
  CASE2 - each device persistently stores one key share; any t+1 live
          devices run the two-round threshold signing.
  CASE3 - devices store nothing; the PD holds helper data per device and
          delivers it each session, the device regenerates its share from
          its current sensor template and checks it against the public
          commitments; the share lives only in that session's ceremony.

The gate always derives from the raw readings the PD collected: in cloud
score modes the PD cross-checks the service's fused value against its own
local fusion and falls back to the local value on disagreement beyond the
quantization tolerance, so a forged ScoreResponse cannot open the gate.
The service answers every ScoreRequest; a reply with no value (the
service did not fuse), one that does not parse, or one whose ciphertext
is out of range or decrypts above any honest fusion counts as such a
disagreement.

Each payload field one party reads from another goes through algebra's
`typed` (its exact type: True is no int, "0.9" no float) or `read_hex`
(a non-empty str of [0-9a-fA-F]); a value either refuses does not parse.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum

from .algebra import MALFORMED, GroupParams, read_hex, typed
from .authscore import (SCORE_SCALE, AuthScore, FusionPolicy, Modality,
                        ModalityReading, PheKeypair, fuse_encrypted,
                        fuse_local, gate, max_fused_plaintext,
                        modality_means, normalize_fused, phe_decrypt,
                        phe_encrypt, quantize_score, weighted_mean)
from .errors import (InsufficientSharesError, InvalidPartialError,
                     ParameterError, RegistrationError, SessionError)
from .fuzzyextractor import (CodeParams, HelperData, bits_to_scalar,
                             fe_enroll, fe_reproduce, scalar_to_bits)
from .sharing import (FeldmanCommitments, Share, ThresholdParams,
                      verify_share)
from .thresholdsig import (DeviceSigner, GroupPublicKey, NonceCommitment,
                           PartialSignature, Signature, combine,
                           compute_challenge_scalar, keygen_dealer)
from .thresholdsig import verify as verify_signature

WIRE_VERSION = "FAS-v1"
NONCE_BYTES = 32
NONCE_TTL = 100
MAX_OUTSTANDING = 128   # nonces the SP keeps per user
SCORE_MODES = ("local-bypass", "cloud-plain", "cloud-encrypted")
CLOUD_AGREEMENT_TOL = 0.01
_TRANSCRIPT_WINDOW = 64
# The longest honest wire line is a CASE 3 HelperDelivery at
# simulator.SIZE_CAPS on prod2048 (n = 100, t = 99, code_r = 101): t + 1 =
# 100 commitments of up to 512 hex digits (p has 2048 bits), each quoted
# and comma-separated, and 256 x 101 helper bits as 6,464 hex digits. With
# its headers that is 58,116 characters; 64 KiB leaves room for longer
# ids. Honest lines are ASCII, so each character is one byte.
MAX_WIRE_BYTES = 64 * 1024


class MessageType(str, Enum):
    AUTH_REQUEST = "AuthRequest"
    CHALLENGE = "Challenge"
    SCORE_REQUEST = "ScoreRequest"
    SENSOR_READING = "SensorReading"
    SCORE_RESPONSE = "ScoreResponse"
    HELPER_DELIVERY = "HelperDelivery"
    SIGN_ROUND1 = "SignRound1"
    SIGN_ROUND2 = "SignRound2"
    AUTH_RESPONSE = "AuthResponse"
    AUTH_RESULT = "AuthResult"


class Case(Enum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class Message:
    type: MessageType
    sender: str
    receiver: str
    session_id: str
    payload: dict


def message_to_wire(msg: Message) -> str:
    """Canonical one-line JSON wire encoding."""
    return json.dumps(
        {"v": WIRE_VERSION, "type": msg.type.value, "from": msg.sender,
         "to": msg.receiver, "session": msg.session_id,
         "payload": msg.payload},
        sort_keys=True, separators=(",", ":"))


def message_from_wire(line: str) -> Message:
    """The Message a wire line encodes; ParameterError when the line is
    longer than MAX_WIRE_BYTES, or is not a JSON object of this wire
    version with every field."""
    try:
        if len(line) > MAX_WIRE_BYTES:
            raise ValueError(f"{len(line)} characters, over the "
                             f"{MAX_WIRE_BYTES} cap")
        obj = json.loads(line)
        if obj["v"] != WIRE_VERSION:
            raise ValueError(f"unsupported wire version {obj['v']!r}")
        return Message(type=MessageType(obj["type"]), sender=obj["from"],
                       receiver=obj["to"], session_id=obj["session"],
                       payload=obj["payload"])
    except MALFORMED as exc:
        raise ParameterError(f"malformed wire line: {exc}") from None


def signing_message_bytes(sp_id: str, nonce: bytes) -> bytes:
    """Normative byte layout of what gets signed: version, SP identity,
    and the challenge nonce. Binding sp_id blocks cross-SP replay."""
    return WIRE_VERSION.encode("utf-8") + sp_id.encode("utf-8") + nonce


@dataclass(frozen=True)
class RegistrationRecord:
    """What the SP learns at registration: the user and her public key."""

    user_id: str
    pubkey: GroupPublicKey


@dataclass
class CaseStrategy:
    """The active solution variant plus its per-case knobs."""

    case: Case
    pd_holds_share: bool = False
    code: CodeParams | None = None  # CASE3 repetition-code geometry

    def __post_init__(self):
        if self.case is Case.CASE3 and self.code is None:
            raise ParameterError("CASE3 requires code parameters")


class _Transcript:
    """Per-entity message log (audit support): the last
    _TRANSCRIPT_WINDOW messages the entity named `entity_id` sent or
    received, oldest first, so a long-lived entity keeps bounded memory."""

    def __init__(self, entity_id: str):
        self.entity_id = entity_id
        self.transcript: deque = deque(maxlen=_TRANSCRIPT_WINDOW)

    def record(self, msg: Message) -> None:
        self.transcript.append(msg)


# ---------------------------------------------------------------------------
# Service provider
# ---------------------------------------------------------------------------

class ServiceProvider(_Transcript):
    """Issues single-use challenges and verifies signed responses.

    A nonce is kept until a later challenge finds it older than the TTL,
    or until its user's MAX_OUTSTANDING (128) newer nonces are kept, so a
    flood of requests for one user evicts only that user's oldest nonce
    each time. A response carrying an evicted nonce is denied
    "nonce-unknown", even one that was already used.
    """

    def __init__(self, sp_id: str, rng: random.Random):
        super().__init__(sp_id)
        self.sp_id = sp_id
        self._rng = rng
        self._users: dict = {}
        self._nonces: OrderedDict = OrderedDict()   # in issue order
        self._outstanding: dict = {}   # user -> its nonces, in issue order
        self._session_counter = 0

    def register_user(self, record: RegistrationRecord) -> None:
        self._users[record.user_id] = record.pubkey

    def new_session(self) -> str:
        self._session_counter += 1
        return f"{self.sp_id}-s{self._session_counter:06d}"

    def issue_challenge(self, user_id: str, session_id: str,
                        now: int) -> Message:
        if user_id not in self._users:
            raise RegistrationError(f"unknown user {user_id!r}")
        while self._nonces:
            oldest = next(iter(self._nonces.values()))
            if now - oldest["issued"] <= NONCE_TTL:
                break
            self._nonces.popitem(last=False)
            theirs = self._outstanding[oldest["user_id"]]
            theirs.popleft()
            if not theirs:
                del self._outstanding[oldest["user_id"]]
        mine = self._outstanding.setdefault(user_id, deque())
        if len(mine) == MAX_OUTSTANDING:
            del self._nonces[mine.popleft()]
        nonce = self._rng.getrandbits(8 * NONCE_BYTES).to_bytes(
            NONCE_BYTES, "big")
        while nonce.hex() in self._nonces:
            nonce = self._rng.getrandbits(8 * NONCE_BYTES).to_bytes(
                NONCE_BYTES, "big")
        self._nonces[nonce.hex()] = {"user_id": user_id, "issued": now,
                                     "used": False}
        mine.append(nonce.hex())
        msg = Message(type=MessageType.CHALLENGE, sender=self.sp_id,
                      receiver="pd", session_id=session_id,
                      payload={"sp_id": self.sp_id, "nonce": nonce.hex()})
        self.record(msg)
        return msg

    def verify(self, response: Message, now: int) -> Message:
        """Check the signed response; grant only for a fresh, unused nonce
        and a signature valid under the registered public key."""
        self.record(response)
        try:
            nonce_hex = response.payload["nonce"]
            entry = self._nonces[nonce_hex]
        except MALFORMED:
            return self._result(response, False, "nonce-unknown")
        if entry["used"]:
            return self._result(response, False, "replay")
        if now - entry["issued"] > NONCE_TTL:
            return self._result(response, False, "expired")
        pubkey = self._users[entry["user_id"]]
        try:
            sig = Signature.from_json(response.payload["signature"])
        except MALFORMED:
            return self._result(response, False, "signature")
        message = signing_message_bytes(self.sp_id, _read_nonce(nonce_hex))
        if not verify_signature(pubkey, message, sig):
            return self._result(response, False, "signature")
        entry["used"] = True
        return self._result(response, True, "ok")

    def _result(self, response: Message, granted: bool,
                reason: str) -> Message:
        msg = Message(type=MessageType.AUTH_RESULT, sender=self.sp_id,
                      receiver=response.sender,
                      session_id=response.session_id,
                      payload={"granted": granted, "reason": reason})
        self.record(msg)
        return msg


def request_challenge(user_id: str, sp: ServiceProvider,
                      now: int):
    """Step 1 and 2 of the flow: AuthRequest in, Challenge out."""
    session = sp.new_session()
    req = Message(type=MessageType.AUTH_REQUEST, sender="pd",
                  receiver=sp.sp_id, session_id=session,
                  payload={"user_id": user_id})
    sp.record(req)
    challenge = sp.issue_challenge(user_id, session, now)
    return req, challenge


# ---------------------------------------------------------------------------
# Score fusion service
# ---------------------------------------------------------------------------

class FaspService(_Transcript):
    """Fuses scores on request. In encrypted mode it aggregates Paillier
    ciphertexts and never sees a plaintext score; requests deliberately
    carry no SP identifier, so the service cannot tell where the user is
    authenticating."""

    def __init__(self):
        super().__init__("fasp")
        self._users: dict = {}   # user -> (policy, Paillier key or None)

    def register_policy(self, user_id: str, policy: FusionPolicy,
                        paillier_pub=None) -> None:
        self._users[user_id] = (policy, paillier_pub)

    def handle_score_request(self, msg: Message) -> Message:
        """The ScoreResponse to any request, with its user_id and mode as
        received. It carries the fused value (plain) or ciphertext
        (encrypted) only if the service fused: the user and mode are
        known, encrypted mode has the user's Paillier key, and the scores
        or ciphertexts parse, lie in [0, SCORE_SCALE] or [0, n^2), and
        weigh more than 0. The PD treats a reply without one as
        disagreement."""
        self.record(msg)
        fields = _fields(msg)
        mode = fields.get("mode")
        payload = {"user_id": fields.get("user_id"), "mode": mode}
        try:
            policy, pub = self._users[payload["user_id"]]
            if mode == "plain":
                scores = _request_values(fields["scores"], _plain_score)
                if not scores.keys() & policy.weights.keys():
                    raise ValueError("no score weighs more than 0")
                payload["value"] = weighted_mean(
                    scores, policy.weights) / SCORE_SCALE
            elif mode == "encrypted" and pub is not None:
                ciphertexts = _request_values(
                    fields["ciphertexts"], lambda v: _hex_below(v, pub.n_sq))
                fused = fuse_encrypted(
                    ciphertexts, policy.integer_weights(ciphertexts), pub)
                payload["ciphertext"] = format(fused, "x")
        except MALFORMED:
            pass
        reply = Message(type=MessageType.SCORE_RESPONSE,
                        sender=self.entity_id, receiver=msg.sender,
                        session_id=msg.session_id, payload=payload)
        self.record(reply)
        return reply

    def state_snapshot(self) -> dict:
        """Inspection hook: the plaintext scores this service retains,
        which are those plaintext_scores finds in its transcript, oldest
        first."""
        return {"plaintext_scores": [s for msg in self.transcript
                                     for s in plaintext_scores(msg)]}


def plaintext_scores(msg: Message) -> list:
    """The plaintext scores msg shows to anyone who holds it, as sent:
    (modality, score) per entry of a ScoreRequest's scores, ("fused",
    value) for a ScoreResponse's value, and none in any other payload."""
    fields = _fields(msg)
    if msg.type is MessageType.SCORE_REQUEST \
            and isinstance(fields.get("scores"), dict):
        return list(fields["scores"].items())
    if msg.type is MessageType.SCORE_RESPONSE and "value" in fields:
        return [("fused", fields["value"])]
    return []


def _fields(msg: Message) -> dict:
    """msg's payload, or no fields when a forger sent something other
    than a JSON object."""
    return msg.payload if isinstance(msg.payload, dict) else {}


def _plain_score(value) -> int:
    """A quantized score, which is an int in [0, SCORE_SCALE]."""
    score = typed(value, int)
    if not 0 <= score <= SCORE_SCALE:
        raise ValueError(f"score {score} outside [0, {SCORE_SCALE}]")
    return score


def _read_nonce(value) -> bytes:
    """The bytes of a nonce of exactly 2 * NONCE_BYTES hex digits."""
    number = read_hex(value)
    if len(value) != 2 * NONCE_BYTES:
        raise ValueError("a nonce is not 2 * NONCE_BYTES hex digits")
    return number.to_bytes(NONCE_BYTES, "big")


def _hex_below(value, bound: int) -> int:
    """read_hex(value); ValueError unless it is below bound."""
    number = read_hex(value)
    if not number < bound:
        raise ValueError("hex number out of range")
    return number


def _request_values(raw, parse) -> dict:
    """{Modality: parse(value)} over a ScoreRequest's scores or
    ciphertexts; TypeError when `raw` is not a JSON object."""
    return {Modality(k): parse(v) for k, v in typed(raw, dict).items()}


# ---------------------------------------------------------------------------
# Dumb device
# ---------------------------------------------------------------------------

class DumbDevice(_Transcript):
    """Sensor-bearing wearable. Talks only to the PD.

    A device has one signer slot, which only enroll writes. In CASE2 it
    persistently stores its key share there. In CASE3 the slot stays
    empty: each session receive_helper regenerates the share from helper
    data plus the current template and hands it to the signing ceremony,
    which drops it when the session ends.
    """

    def __init__(self, index: int, modalities):
        super().__init__(f"dd{index}")
        self.index = index
        self.modalities = list(modalities)
        # What the sensors would measure right now; set by the caller.
        self.current_scores: dict = {}
        self.current_template: str | None = None
        self._signer: DeviceSigner | None = None

    def read_sensor(self, now: int) -> list:
        """The SensorReading payloads the device sends now, one per
        modality it has a score for. The score goes out as the sensor
        reports it; the PD judges it and drops a reading it cannot use."""
        return [{"device_id": self.entity_id, "modality": m.value,
                 "score": self.current_scores[m], "timestamp": now}
                for m in self.modalities if m in self.current_scores]

    def install_key_share(self, share: Share | None,
                          group: GroupParams) -> None:
        """Fill the signer slot with `share`, or empty it for None."""
        self._signer = None if share is None else DeviceSigner(share, group)

    def receive_helper(self, helper: HelperData,
                       commitments: FeldmanCommitments,
                       group: GroupParams) -> DeviceSigner | None:
        """CASE3: regenerate the key share from the current template.

        Returns a signer over it, which the device does not keep, or None
        when the recovered share fails the commitment check (too-noisy or
        impostor template); the device then sits the session out. Bits
        that decode outside the field raise CorruptedShareError instead
        of returning None, and the flow sits the device out for that too.
        """
        if self.current_template is None:
            return None
        bits = fe_reproduce(self.current_template, helper)
        share = Share(self.index, bits_to_scalar(bits, group.field))
        if not verify_share(share, commitments, group):
            return None
        return DeviceSigner(share, group)

    def persistent_state(self) -> dict:
        """Everything this device keeps between sessions."""
        state = {"device_id": self.entity_id, "index": self.index,
                 "modalities": [m.value for m in self.modalities]}
        if self._signer is not None:
            state["key_share_value"] = self._signer._share.value
        return state


# ---------------------------------------------------------------------------
# Personal device (gateway)
# ---------------------------------------------------------------------------

class PersonalDevice(_Transcript):
    """The user's gateway: holds per-case key material, helper data and
    the fusion policy; orchestrates score fusion and the signing ceremony."""

    def __init__(self, user_id: str, policy: FusionPolicy,
                 score_mode: str = "local-bypass"):
        super().__init__("pd")
        if score_mode not in SCORE_MODES:
            raise ParameterError(f"unknown score mode {score_mode!r}")
        self.user_id = user_id
        self.policy = policy
        self.score_mode = score_mode
        self.strategy: CaseStrategy | None = None
        self.pubkey: GroupPublicKey | None = None
        self.commitments: FeldmanCommitments | None = None
        # The PD's own share: the whole key in CASE1, optional otherwise.
        self._own_signer: DeviceSigner | None = None
        self.helper_store: dict = {}                  # CASE3: index -> HD
        self.paillier: PheKeypair | None = None

    def persistent_state(self) -> dict:
        state = {"user_id": self.user_id,
                 "score_mode": self.score_mode,
                 "helper_data": {i: hd.to_json()
                                 for i, hd in self.helper_store.items()}}
        if self._own_signer is not None:
            label = "secret_key" if self.strategy.case is Case.CASE1 \
                else "key_share_value"
            state[label] = self._own_signer._share.value
        return state


def enroll(user_id: str, strategy: CaseStrategy, params: ThresholdParams,
           group: GroupParams, pd: PersonalDevice, dds,
           rng: random.Random, enrolment_templates: dict | None = None,
           paillier_keypair: PheKeypair | None = None) -> RegistrationRecord:
    """Trusted-dealer enrolment run on the PD.

    Generates the keypair, distributes material per the case strategy,
    and returns the record the SP stores. It replaces any earlier
    enrolment: the PD's own share, its helper data and the share slot of
    every given device are all set anew, and a slot this case does not
    fill is emptied. It checks every input before it writes anything: two
    devices with one index, a share with no device of its index, in CASE3
    a code shorter than q's bit length (checked before any key is drawn)
    or no usable enrolment template, or a Paillier modulus too small for
    the fused score raises ParameterError and leaves the PD and every
    device as they were. The dealer's secret and polynomial exist only inside
    this call; with CASE3 the per-device shares and enrolment templates
    are likewise gone when it returns, leaving only helper data on the PD.
    """
    if pd.score_mode == "cloud-encrypted" and (
            paillier_keypair is None or paillier_keypair.public.n
            <= max_fused_plaintext(pd.policy)):
        raise ParameterError("cloud-encrypted scoring needs a Paillier "
                             "keypair whose n exceeds the largest fused score")
    by_index = {}
    for dd in dds:
        if by_index.setdefault(dd.index, dd) is not dd:
            raise ParameterError(f"two devices have index {dd.index}")
    if strategy.case is Case.CASE3 and \
            strategy.code.m < group.q.bit_length():
        raise ParameterError(f"a {strategy.code.m}-bit code cannot carry "
                             f"the {group.q.bit_length()}-bit shares of q")
    if strategy.case is Case.CASE1:
        params = ThresholdParams(t=0, n=1)
    pubkey, shares, commitments = keygen_dealer(params, group, rng)

    own = strategy.pd_holds_share or strategy.case is Case.CASE1
    stored, helpers = {}, {}   # index -> a device's share / CASE3 helper
    for share in shares[1:] if own else shares:
        if share.index not in by_index:
            raise ParameterError(
                f"no device with index {share.index} to hold its share")
        if strategy.case is Case.CASE3:
            template = (enrolment_templates or {}).get(share.index)
            if template is None:
                raise ParameterError(
                    f"missing enrolment template for device {share.index}")
            helpers[share.index] = fe_enroll(
                scalar_to_bits(share.value, strategy.code.m), template,
                strategy.code)
        else:
            stored[share.index] = share

    pd.strategy = strategy
    pd.paillier = paillier_keypair
    pd.pubkey = pubkey
    pd.commitments = commitments
    pd._own_signer = DeviceSigner(shares[0], group) if own else None
    # In CASE3 the DDs keep nothing and the PD only the helper data.
    pd.helper_store = helpers
    for index, dd in by_index.items():
        dd.install_key_share(stored.get(index), group)
    return RegistrationRecord(user_id=user_id, pubkey=pubkey)


# ---------------------------------------------------------------------------
# The authentication flow
# ---------------------------------------------------------------------------

def _denied(pd: PersonalDevice, session: str, reason: str) -> Message:
    msg = Message(type=MessageType.AUTH_RESULT, sender=pd.entity_id,
                  receiver="user", session_id=session,
                  payload={"granted": False, "reason": reason})
    pd.record(msg)
    return msg


class _Flow:
    """One authentication attempt driven by the PD."""

    def __init__(self, pd, dds, session, fasp, rng, transit_hook):
        self.pd = pd
        self.session = session
        self.dds = sorted(dds, key=lambda d: d.index)
        self.fasp = fasp
        self.rng = rng
        self.hook = transit_hook or (lambda m: m)
        self.messages: list = []
        self.readings: list = []   # the readings that parsed

    def send(self, msg: Message, sender_entity, receiver_entity) -> Message:
        """Route one message: the transit hook may tamper with it; both
        ends record what they actually saw."""
        if sender_entity is not None:
            sender_entity.record(msg)
        delivered = self.hook(msg)
        if receiver_entity is not None:
            receiver_entity.record(delivered)
        self.messages.append(delivered)
        return delivered

    def link(self, kind: MessageType, sender, receiver, payload) -> Message:
        """Send a gateway-device message of `kind`, addressed from its two
        parties' entity_ids and this flow's session."""
        return self.send(Message(type=kind, sender=sender.entity_id,
                                 receiver=receiver.entity_id,
                                 session_id=self.session, payload=payload),
                         sender, receiver)


def pd_run_authentication(pd: PersonalDevice, dds, challenge: Message,
                          now: int, rng: random.Random,
                          fasp: FaspService | None = None,
                          transit_hook=None):
    """Run the PD-orchestrated part of the flow.

    Returns the ordered list of messages it produced, ending with either
    the AuthResponse as it reached the SP or the PD's own denied
    AuthResult; `conclude` ends the session from that list, and
    `authenticate` runs a whole session around it. If the score
    gate fails, no signing message is ever sent. `transit_hook`, if
    given, is called with each message that crosses a link and must
    return the Message to deliver in its place; dropping a message is an
    availability threat, which is out of scope. A Challenge whose session
    id or sp_id is no str, or whose nonce is not 2 * NONCE_BYTES hex
    digits, is denied "challenge" before any device is contacted; a cloud
    score mode with no scoring service is a ParameterError even earlier.
    """
    if pd.score_mode != "local-bypass" and fasp is None:
        raise ParameterError(
            f"score mode {pd.score_mode!r} needs a scoring service")
    session = challenge.session_id
    pd.record(challenge)
    fields = _fields(challenge)
    try:
        typed(session, str)
        sp_id = typed(fields["sp_id"], str)
        nonce = _read_nonce(fields["nonce"])
    except MALFORMED:
        return [_denied(pd, session, "challenge")]
    flow = _Flow(pd, dds, session, fasp, rng, transit_hook)

    # Step 3a: collect sensor readings from every live device.
    for dd in flow.dds:
        for reading in dd.read_sensor(now):
            parsed = _parse_reading(flow.link(
                MessageType.SENSOR_READING, dd, pd, reading).payload)
            if parsed is not None:
                flow.readings.append(parsed)

    # Step 3b: fuse and gate. The local fusion over raw readings is
    # always computed; cloud modes must agree with it to be believed.
    score = _compute_auth_score(flow, now)
    if not gate(score, pd.policy):
        return flow.messages + [_denied(pd, session, "score")]

    # Step 4: the signing ceremony of the active case.
    message_bytes = signing_message_bytes(sp_id, nonce)
    try:
        signature = _sign_ceremony(flow, message_bytes)
    except InsufficientSharesError:
        return flow.messages + [_denied(pd, session, "insufficient-devices")]
    except InvalidPartialError:
        return flow.messages + [_denied(pd, session, "invalid-partial")]
    except SessionError:
        # A signer already used this session id: the SP repeated one.
        return flow.messages + [_denied(pd, session, "session-reused")]

    # Step 5: answer the challenge.
    response = Message(type=MessageType.AUTH_RESPONSE, sender=pd.entity_id,
                       receiver=sp_id, session_id=session,
                       payload={"user_id": pd.user_id, "nonce": nonce.hex(),
                                "signature": signature.to_json()})
    flow.send(response, pd, None)
    return flow.messages


def conclude(pd: PersonalDevice, sp: ServiceProvider, flow: list,
             now: int) -> list:
    """End a session: `flow` with the session's verdict appended last.

    The PD's own denial is already the verdict; it is the last message
    the PD recorded and never crossed the transit hook. Anything else is
    what reached the SP, which judges it whatever its headers now say.
    `authenticate` calls it for a whole session.
    """
    last = flow[-1]
    if last is pd.transcript[-1] and last.type is MessageType.AUTH_RESULT:
        return list(flow)
    return [*flow, sp.verify(last, now)]


def authenticate(pd: PersonalDevice, dds, sp: ServiceProvider, now: int,
                 rng: random.Random, fasp: FaspService | None = None,
                 transit_hook=None) -> list:
    """One whole session for `pd.user_id`: the AuthRequest, the Challenge,
    the flow `pd_run_authentication` runs on them and, last, the session's
    verdict (the SP's, or the PD's own denial)."""
    req, challenge = request_challenge(pd.user_id, sp, now)
    flow = pd_run_authentication(pd, dds, challenge, now, rng, fasp=fasp,
                                 transit_hook=transit_hook)
    return [req, challenge, *conclude(pd, sp, flow, now)]


def _parse_reading(payload: dict) -> ModalityReading | None:
    """The reading a SensorReading carries, or None when a field is not of
    its exact type or does not parse, or its score lies outside [0, 1];
    the PD drops such a reading and gates on the rest."""
    try:
        return ModalityReading(device_id=typed(payload["device_id"], str),
                               modality=Modality(payload["modality"]),
                               score=typed(payload["score"], float),
                               timestamp=typed(payload["timestamp"], int))
    except MALFORMED:
        return None


def _compute_auth_score(flow: _Flow, now: int) -> AuthScore:
    pd = flow.pd
    local = fuse_local(flow.readings, pd.policy, now)
    if pd.score_mode == "local-bypass" or not local.contributing:
        return local

    scores = {m: quantize_score(v) for m, v in
              modality_means(flow.readings, pd.policy, now).items()}
    ciphertexts = {}
    if pd.score_mode == "cloud-plain":
        payload = {"user_id": pd.user_id, "mode": "plain",
                   "scores": {m.value: v for m, v in scores.items()}}
    else:
        ciphertexts = {m: phe_encrypt(v, pd.paillier, flow.rng)
                       for m, v in scores.items()}
        payload = {"user_id": pd.user_id, "mode": "encrypted",
                   "ciphertexts": {m.value: format(c, "x")
                                   for m, c in ciphertexts.items()}}
    # Note: no sp_id in the payload; the scoring service must not learn
    # where the user is authenticating.
    request = Message(type=MessageType.SCORE_REQUEST, sender=pd.entity_id,
                      receiver=flow.fasp.entity_id, session_id=flow.session,
                      payload=payload)
    delivered = flow.send(request, pd, None)
    reply = flow.send(flow.fasp.handle_score_request(delivered), None, pd)

    cloud_value = _cloud_value(pd, reply, scores, ciphertexts)
    if cloud_value is None or \
            not abs(cloud_value - local.value) <= CLOUD_AGREEMENT_TOL:
        # Tampered, forged, unparseable or valueless response (a NaN
        # fails the comparison too): distrust it, gate on raw readings.
        return local
    return AuthScore(value=cloud_value, contributing=local.contributing,
                     mode="cloud")


def _cloud_value(pd: PersonalDevice, reply: Message, scores: dict,
                 ciphertexts: dict) -> float | None:
    """The fused score a ScoreResponse claims, or None when the PD cannot
    use it: it carries no value (the service did not fuse), its payload
    does not parse (a plain reply's value must be a float, an encrypted
    reply's ciphertext hex in [0, n^2)), the present modalities' integer
    weights sum to 0, or the ciphertext decrypts to more than any honest
    fusion under the PD's policy sums to.

    `scores` are the quantized scores the PD sent, and `ciphertexts`
    their encryptions. An honest encrypted reply is the product
    fuse_encrypted makes of those ciphertexts, which Paillier's
    homomorphism makes an encryption of sum(w * score) mod n. So the PD
    rebuilds that product and decrypts only a reply that differs
    (re-randomised, forged or mangled); both ways give the value
    phe_decrypt would."""
    try:
        if pd.score_mode == "cloud-plain":
            return typed(reply.payload["value"], float)
        public = pd.paillier.public
        fused = _hex_below(reply.payload["ciphertext"], public.n_sq)
        weights = pd.policy.integer_weights(scores)
        rebuilt = fuse_encrypted(ciphertexts, weights, public)
    except MALFORMED:
        return None
    if fused == rebuilt:
        plaintext = sum(w * scores[m] for m, w in weights.items()) % public.n
    else:
        plaintext = phe_decrypt(fused, pd.paillier)
    if plaintext > max_fused_plaintext(pd.policy):
        return None
    return normalize_fused(plaintext, weights)


def _regenerate(flow: _Flow, dd: DumbDevice) -> DeviceSigner | None:
    """CASE3: deliver dd's helper data; the signer over the share it
    regenerates, or None when that share fails the commitment check."""
    pd = flow.pd
    helper = pd.helper_store.get(dd.index)
    if helper is None:
        return None
    payload = flow.link(MessageType.HELPER_DELIVERY, pd, dd,
                        {"helper": helper.to_json(),
                         "commitments": pd.commitments.to_json()}).payload
    try:
        return dd.receive_helper(
            HelperData.from_json(payload["helper"]),
            FeldmanCommitments.from_json(payload["commitments"]),
            pd.pubkey.group)
    except MALFORMED:
        # A payload that does not parse, or a helper that does not fit
        # the device's template: the device sits out.
        return None


def _exchange(flow: _Flow, signer_row, kind: MessageType, ask: dict,
              key: str, bound: int, sign) -> int:
    """One signer's round-`kind` value: `sign(signer)` computes it.

    The PD's own share (no device) signs in place and sends no message.
    A device is asked, signs, and answers; its delivered answer is hostile
    input, and one that does not parse, names another signer or lies
    outside [0, bound) is a bad partial.
    """
    index, dd, signer = signer_row
    if dd is None:
        return sign(signer)
    flow.link(kind, flow.pd, dd, ask)
    answer = flow.link(kind, dd, flow.pd,
                       {"index": index, key: format(sign(signer), "x")})
    try:
        if typed(answer.payload["index"], int) != index:
            raise ValueError("the answer names another signer")
        return _hex_below(answer.payload[key], bound)
    except MALFORMED as exc:
        raise InvalidPartialError(
            f"signer {index}: bad {kind.value} answer: {exc}") from exc


def _sign_ceremony(flow: _Flow, message_bytes: bytes) -> Signature:
    """Round 1, the challenge and round 2 with the first t+1 signers,
    then combine; the chosen signers' nonces are gone when it returns."""
    pd = flow.pd
    session = flow.session
    group = pd.pubkey.group
    quorum = pd.pubkey.params.t + 1

    # Signers, as (index, device or None, DeviceSigner): the PD's own
    # share if it has one, and each device that stores a share (CASE2;
    # none do in CASE1) or, in CASE3, whose share regenerated from
    # delivered helper data passes the commitment check. A regenerated
    # share lives only in this list.
    signers = []
    if pd._own_signer is not None:
        signers.append((pd._own_signer.index, None, pd._own_signer))
    case3 = pd.strategy.case is Case.CASE3
    for dd in flow.dds:
        signer = _regenerate(flow, dd) if case3 else dd._signer
        if signer is not None:
            signers.append((dd.index, dd, signer))
    signers.sort(key=lambda row: row[0])
    if len(signers) < quorum:
        raise InsufficientSharesError(
            f"{len(signers)} signer(s) available, need {quorum}")
    chosen = signers[:quorum]
    signer_set = [index for index, _, _ in chosen]

    try:
        commitments = [NonceCommitment(
            index=row[0], session_id=session, commitment=_exchange(
                flow, row, MessageType.SIGN_ROUND1, {"signer": row[0]},
                "R", group.p,
                lambda signer: signer.round1(session, flow.rng).commitment))
            for row in chosen]
        R = 1
        for com in commitments:
            R = R * com.commitment % group.p
        c = compute_challenge_scalar(R, pd.pubkey.y, message_bytes, group)
        partials = [PartialSignature(
            index=row[0], session_id=session, s=_exchange(
                flow, row, MessageType.SIGN_ROUND2,
                {"challenge": format(c, "x"), "signer_set": signer_set},
                "s", group.q,
                lambda signer: signer.round2(session, c, signer_set).s))
            for row in chosen]
    finally:
        for _, _, signer in chosen:
            signer.abort_session(session)
    return combine(commitments, partials, pd.pubkey, message_bytes)
