"""Two-round threshold Schnorr signing over a shared private key.

Round 1: each participating device draws a fresh nonce k_i and publishes
its commitment R_i = g^k_i. The gateway aggregates R = prod R_i and
derives the challenge scalar c = H(R || y || message) mod q.

Round 2: device i responds with s_i = k_i + c * lambda_i * x_i, where
lambda_i is the Lagrange coefficient of i within the signer set. Summing
the responses gives s with g^s = R * y^c, i.e. an ordinary Schnorr
signature (R, s) under the single group public key y = g^x. Verification
never learns which devices signed.

The signer model is honest-but-curious: there are no binding factors
against adversarially coordinated concurrent sessions, so a device must
never run two sessions with the same session id. DeviceSigner enforces
this over its last _SESSION_WINDOW session ids and erases each nonce when
it is consumed or when its session id leaves that window. Each device has
one signer slot; the gateway's own share, if it has one, is one more
DeviceSigner.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .algebra import (GroupElement, GroupParams, PrimeField, Scalar,
                      lagrange_coefficient, read_hex)
from .errors import (InsufficientSharesError, InvalidPartialError,
                     ParameterError, SessionError)
from .sharing import Share, ThresholdParams, share_secret

# A key share is exactly a Shamir share of the private key.
KeyShare = Share

# How many recent session ids a DeviceSigner remembers and refuses.
_SESSION_WINDOW = 1024


@dataclass(frozen=True)
class GroupPublicKey:
    """The single public key y = g^x the combined signature verifies under.

    verify computes y^c with group.public_power: c is public, so y's
    table may be filled on demand.
    """

    y: GroupElement
    group: GroupParams
    params: ThresholdParams


@dataclass(frozen=True)
class NonceCommitment:
    """Round-1 output of one device: R_i = g^k_i for this session."""

    index: int
    commitment: GroupElement
    session_id: str


@dataclass(frozen=True)
class PartialSignature:
    """Round-2 response s_i of one device."""

    index: int
    s: Scalar
    session_id: str


@dataclass(frozen=True)
class Signature:
    R: GroupElement
    s: Scalar

    def to_json(self) -> dict:
        return {"R": format(self.R, "x"), "s": format(self.s, "x")}

    @classmethod
    def from_json(cls, obj: dict) -> "Signature":
        return cls(R=read_hex(obj["R"]), s=read_hex(obj["s"]))


def keygen_dealer(params: ThresholdParams, group: GroupParams,
                  rng: random.Random):
    """Trusted-dealer key generation.

    Draws x uniformly, shares it with share_secret, and returns
    (GroupPublicKey, key shares, FeldmanCommitments). The secret and the
    polynomial live only in this call's locals; nothing retains x.
    """
    x = rng.randrange(group.q)
    shares, commitments = share_secret(x, params, group, rng)
    y = commitments.commitments[0]   # C_0 = g^x, the commitment to x
    return GroupPublicKey(y=y, group=group, params=params), shares, commitments


def sign_round1(key_share: KeyShare, group: GroupParams, session_id: str,
                rng: random.Random):
    """Draw the session nonce and commit to it.

    Returns (k_i, NonceCommitment). k_i is uniform in [1, q); a zero draw
    is resampled. The caller owns k_i until round 2 and must not reuse a
    session id (DeviceSigner tracks that).
    """
    k = rng.randrange(group.q)
    while k == 0:
        k = rng.randrange(group.q)
    commitment = NonceCommitment(index=key_share.index,
                                 commitment=group.power(k),
                                 session_id=session_id)
    return k, commitment


def compute_challenge_scalar(R: GroupElement, y: GroupElement,
                             message: bytes, group: GroupParams) -> Scalar:
    """c = SHA-256(enc(R) || enc(y) || message) mod q, with enc the
    fixed-width big-endian encoding of ceil(bitlen(p)/8) bytes."""
    digest = hashlib.sha256(
        group.encode_element(R) + group.encode_element(y) + message).digest()
    return int.from_bytes(digest, "big") % group.q


def sign_round2(key_share: KeyShare, nonce: Scalar, challenge: Scalar,
                signer_set, field: PrimeField, session_id: str = "",
                ) -> PartialSignature:
    """s_i = k_i + c * lambda_i * x_i mod q for this device's index;
    lagrange_coefficient refuses a signer set without that index."""
    lam = lagrange_coefficient(signer_set, key_share.index, field)
    s = (nonce + challenge * lam % field.q * key_share.value) % field.q
    return PartialSignature(index=key_share.index, s=s, session_id=session_id)


def combine(commitments, partials, pubkey: GroupPublicKey, message: bytes,
            challenge_fn=compute_challenge_scalar) -> Signature:
    """Aggregate nonce commitments and partial responses into a signature.

    Requires at least t+1 partials from one session, with the same index
    set as the commitments. The result is verified before it is returned;
    failure raises InvalidPartialError, which signals tampering with (or
    corruption of) some partial.
    """
    commitments = list(commitments)
    partials = list(partials)
    if len(partials) <= pubkey.params.t:
        raise InsufficientSharesError(
            f"got {len(partials)} partials, need at least "
            f"{pubkey.params.t + 1}")
    sessions = {c.session_id for c in commitments} | {p.session_id
                                                      for p in partials}
    if len(sessions) != 1:
        raise SessionError(f"mixed session ids: {sorted(sessions)}")
    if {c.index for c in commitments} != {p.index for p in partials}:
        raise ParameterError("commitment and partial index sets differ")
    group = pubkey.group
    R = 1
    for c in commitments:
        R = R * c.commitment % group.p
    s = sum(p.s for p in partials) % group.q
    sig = Signature(R=R, s=s)
    if not verify(pubkey, message, sig, challenge_fn=challenge_fn):
        raise InvalidPartialError(
            "combined signature failed verification; a partial signature "
            "was tampered with or derived from a bad share")
    return sig


def verify(pubkey: GroupPublicKey, message: bytes, sig: Signature,
           challenge_fn=compute_challenge_scalar) -> bool:
    """g^s == R * y^c mod p with c = H(R || y || message)."""
    group = pubkey.group
    if not 0 < sig.R < group.p or not 0 <= sig.s < group.q:
        return False
    c = challenge_fn(sig.R, pubkey.y, message, group)
    lhs = group.power(sig.s)
    rhs = sig.R * group.public_power(pubkey.y, c) % group.p
    return lhs == rhs


class DeviceSigner:
    """Per-device signing state: one key share plus transient nonces.

    Single-owner by contract. Session ids are single-use within the
    window of the last _SESSION_WINDOW ids this signer saw: round1 refuses
    any of them, and round2 consumes (erases) the nonce, so no interface
    exposes it afterwards. Older ids are forgotten, oldest first, together
    with any nonce still pending under them, so a long-lived signer keeps
    at most _SESSION_WINDOW ids and nonces.
    """

    def __init__(self, key_share: KeyShare, group: GroupParams):
        self._share = key_share
        self._group = group
        # session id -> pending nonce, or None once consumed or aborted
        self._sessions: dict = {}   # insertion-ordered, oldest first

    @property
    def index(self) -> int:
        return self._share.index

    def round1(self, session_id: str, rng: random.Random) -> NonceCommitment:
        if session_id in self._sessions:
            raise SessionError(
                f"device {self.index} already used session {session_id!r}")
        self._sessions[session_id] = None
        if len(self._sessions) > _SESSION_WINDOW:
            del self._sessions[next(iter(self._sessions))]
        k, commitment = sign_round1(self._share, self._group, session_id, rng)
        self._sessions[session_id] = k
        return commitment

    def round2(self, session_id: str, challenge: Scalar,
               signer_set) -> PartialSignature:
        k = self._sessions.get(session_id)
        if k is None:
            raise SessionError(
                f"device {self.index} holds no nonce for {session_id!r}")
        self._sessions[session_id] = None  # consumed: the nonce is gone
        return sign_round2(self._share, k, challenge, signer_set,
                           self._group.field, session_id=session_id)

    def has_nonce(self, session_id: str) -> bool:
        return self._sessions.get(session_id) is not None

    def abort_session(self, session_id: str) -> None:
        """Drop the nonce without producing a partial."""
        if session_id in self._sessions:
            self._sessions[session_id] = None
