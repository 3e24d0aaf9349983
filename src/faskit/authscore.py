"""Authentication-score fusion and the Paillier-backed encrypted variant.

Local mode: the gateway fuses fresh modality scores into a weighted mean,
renormalized over whichever modalities are actually present, and gates key
usage on a threshold (ties pass). Missing or stale modalities simply drop
out, so losing a device costs nothing but its weight.

Cloud mode: scores are quantized to integers 0..100 (multiply by 100,
round half up), Paillier-encrypted on the gateway, and aggregated by the
scoring service as a homomorphic weighted sum. The service only ever
touches ciphertexts; the gateway recovers the plaintext sum, divides by
100 * sum(weights), and gates locally. Agreement with local fusion is
within the 0.01 quantization error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .algebra import is_probable_prime, mod_inv
from .errors import NonInvertibleError, ParameterError

SCORE_SCALE = 100          # quantization: score 0..1 -> integer 0..100
WEIGHT_SCALE = 10 ** 6     # integerized fusion weights for the cloud path
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970   # float() overflows from here on


class Modality(str, Enum):
    GAIT = "gait"
    LOCATION = "location"
    HEARTBEAT = "heartbeat"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ModalityReading:
    """One behaviometric/contextual similarity score from one device."""

    device_id: str
    modality: Modality
    score: float
    timestamp: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ParameterError(f"score must be in [0,1], got {self.score}")


@dataclass(frozen=True)
class FusionPolicy:
    """Per-modality weights, gate threshold, and reading freshness window.

    A modality whose weight is 0 does not count: it is dropped from
    `weights` once the weights are checked."""

    weights: dict
    theta: float = 0.7
    staleness_max: int = 10

    def __post_init__(self):
        if not self.weights or all(w <= 0 for w in self.weights.values()):
            raise ParameterError("policy needs at least one positive weight")
        if not all(0 <= w * WEIGHT_SCALE < _FLOAT_LIMIT
                   for w in self.weights.values()):
            raise ParameterError("weights must be finite and non-negative")
        if not 0.0 <= self.theta <= 1.0:
            raise ParameterError(f"theta must be in [0,1], got {self.theta}")
        if type(self.staleness_max) is not int or self.staleness_max < 0:
            raise ParameterError("staleness_max must be a non-negative int, "
                                 f"got {self.staleness_max!r}")
        object.__setattr__(self, "weights", {
            m: w for m, w in self.weights.items() if w > 0})

    def integer_weights(self, modalities=None) -> dict:
        """Weights scaled to integers for the homomorphic path."""
        items = self.weights.items()
        if modalities is not None:
            wanted = set(modalities)
            items = [(m, w) for m, w in items if m in wanted]
        return {m: round(w * WEIGHT_SCALE) for m, w in items}


@dataclass(frozen=True)
class AuthScore:
    """The fused confidence that the present devices belong to the user."""

    value: float
    contributing: frozenset
    mode: str = "local"


def quantize_score(score: float) -> int:
    """Normative quantization for the cloud path: x100, round half up."""
    return math.floor(score * SCORE_SCALE + 0.5)


def weighted_mean(values: dict, weights: dict) -> float:
    """sum(w * v) / sum(w) over the modalities that have both a value and
    a weight; 0 when there are none. Added term by term in weight order:
    builtin sum compensates rounding from Python 3.12 on, and the plain
    scoring service's value goes on the wire, the same on every Python."""
    num = den = 0.0
    for m, w in weights.items():
        if m in values:
            num += w * values[m]
            den += w
    return num / den if den else 0.0


def _fresh(readings, policy: FusionPolicy, now: int) -> list:
    """The readings that count: of a weighted modality and at most
    staleness_max old."""
    return [r for r in readings if r.modality in policy.weights
            and now - r.timestamp <= policy.staleness_max]


def modality_means(readings, policy: FusionPolicy, now: int) -> dict:
    """Per-modality mean of the fresh readings for weighted modalities.

    This is the intermediate the gateway quantizes and encrypts on the
    cloud path; fuse_local is its weighted renormalized mean.
    """
    grouped: dict = {}
    for r in _fresh(readings, policy, now):
        grouped.setdefault(r.modality, []).append(r.score)
    return {m: sum(scores) / len(scores) for m, scores in grouped.items()}


def fuse_local(readings, policy: FusionPolicy, now: int) -> AuthScore:
    """Staleness-filtered weighted mean, renormalized over what is present.

    An empty reading set fuses to 0 (and therefore fails any positive
    gate threshold).
    """
    fresh = _fresh(readings, policy, now)
    return AuthScore(
        value=weighted_mean(modality_means(fresh, policy, now),
                            policy.weights),
        contributing=frozenset(r.device_id for r in fresh), mode="local")


def gate(score: AuthScore, policy: FusionPolicy) -> bool:
    """True iff the fused value reaches the threshold; ties pass."""
    return score.value >= policy.theta


# ---------------------------------------------------------------------------
# Paillier cryptosystem (additively homomorphic), g = n + 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhePublicKey:
    n: int
    g: int

    @property
    def n_sq(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class PheKeypair:
    """The private key, held by the gateway: the primes of n and the
    constants that let it compute mod p^2 and q^2 instead of mod n^2
    (Paillier, EUROCRYPT 1999, section 7). Build it with
    keypair_from_primes.

    rho^n mod p^2 uses the Teichmuller lift: x^p mod p^2 depends only on
    x mod p, since (x + kp)^p = x^p mod p^2 by the binomial theorem. So
    rho^n = (rho^q)^p = pow(pow(rho, n mod (p-1), p), p, p^2), reducing
    the inner exponent by Fermat (n = pq = q mod (p-1)); likewise mod
    q^2."""

    public: PhePublicKey
    p: int
    q: int
    p_sq: int
    q_sq: int
    h_p: int            # (-q)^-1 mod p, i.e. L_p(g^(p-1) mod p^2)^-1
    h_q: int            # (-p)^-1 mod q
    n_mod_p: int        # n mod (p-1), the lift's inner exponent
    n_mod_q: int        # n mod (q-1)
    q_inv: int          # q^-1 mod p, recombines mod n
    q_sq_inv: int       # q^-2 mod p^2, recombines mod n^2


PheCiphertext = int


def _gen_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def phe_keygen(bits: int, rng: random.Random) -> PheKeypair:
    """Standard Paillier keypair with an n of roughly `bits` bits.

    bits >= 16 is accepted for test-scale keys; use 2048 in production.
    """
    if bits < 16:
        raise ParameterError(f"modulus size must be >= 16 bits, got {bits}")
    half = bits // 2
    p = _gen_prime(half, rng)
    q = _gen_prime(bits - half, rng)
    # With an odd `bits`, q may be 2p + 1, and then p divides q - 1.
    while q == p or math.gcd(p * q, (p - 1) * (q - 1)) != 1:
        q = _gen_prime(bits - half, rng)
    return _keypair(p, q)


def keypair_from_primes(p: int, q: int) -> PheKeypair:
    """The keypair over p and q, which must be distinct primes with
    gcd(pq, (p-1)(q-1)) = 1."""
    if p == q:
        raise ParameterError("Paillier primes must differ")
    if not (is_probable_prime(p) and is_probable_prime(q)):
        raise ParameterError("Paillier factors must be prime")
    if math.gcd(p * q, (p - 1) * (q - 1)) != 1:
        raise NonInvertibleError(
            f"Paillier needs gcd(n, (p-1)(q-1)) = 1; fails for {p}, {q}")
    return _keypair(p, q)


def _keypair(p: int, q: int) -> PheKeypair:
    """The keypair over p and q, already checked as keypair_from_primes
    checks them."""
    n = p * q
    p_sq, q_sq = p * p, q * q
    return PheKeypair(public=PhePublicKey(n=n, g=n + 1), p=p, q=q,
                      p_sq=p_sq, q_sq=q_sq,
                      h_p=mod_inv(-q, p), h_q=mod_inv(-p, q),
                      n_mod_p=n % (p - 1), n_mod_q=n % (q - 1),
                      q_inv=mod_inv(q, p), q_sq_inv=mod_inv(q_sq, p_sq))


def _crt(a_p: int, a_q: int, m_p: int, m_q: int, m_q_inv: int) -> int:
    """The x in [0, m_p*m_q) with x = a_p mod m_p and x = a_q mod m_q,
    for a_q in [0, m_q) and m_q_inv = m_q^-1 mod m_p (Garner)."""
    return a_q + m_q * ((a_p - a_q) * m_q_inv % m_p)


def phe_encrypt(m: int, key: PhePublicKey | PheKeypair, rng: random.Random,
                rho: int | None = None) -> PheCiphertext:
    """Enc(m; rho) = g^m * rho^n mod n^2 with rho random coprime to n.

    `key` is the public key, or the keypair at the key holder. The
    keypair gives the same ciphertext faster: g^m = 1 + m*n mod n^2, and
    rho^n mod p^2 is the lift (rho^(n mod (p-1)) mod p)^p, since x^p mod
    p^2 depends only on x mod p; likewise mod q^2, joined by CRT. rho is
    drawn by the same rng calls either way.
    Passing rho explicitly is a test hook for known-answer checks.
    """
    public = key.public if isinstance(key, PheKeypair) else key
    if not 0 <= m < public.n:
        raise ParameterError(f"plaintext must lie in [0, {public.n})")
    if rho is None:
        rho = rng.randrange(1, public.n)
        while math.gcd(rho, public.n) != 1:
            rho = rng.randrange(1, public.n)
    elif math.gcd(rho, public.n) != 1:
        raise ParameterError("rho must be coprime to n")
    n_sq = public.n_sq
    if public is key:  # no private key: the textbook formula
        return pow(public.g, m, n_sq) * pow(rho, public.n, n_sq) % n_sq
    rho_n = _crt(pow(pow(rho, key.n_mod_p, key.p), key.p, key.p_sq),
                 pow(pow(rho, key.n_mod_q, key.q), key.q, key.q_sq),
                 key.p_sq, key.q_sq, key.q_sq_inv)
    return (1 + m * public.n) * rho_n % n_sq


def phe_add(c1: PheCiphertext, c2: PheCiphertext,
            public: PhePublicKey) -> PheCiphertext:
    """Ciphertext of the plaintext sum: Enc(m1) * Enc(m2) mod n^2."""
    return c1 * c2 % public.n_sq


def phe_scale(c: PheCiphertext, k: int, public: PhePublicKey) -> PheCiphertext:
    """Ciphertext of k times the plaintext: c^k mod n^2."""
    if k < 0:
        raise ParameterError("scaling factor must be non-negative")
    return pow(c, k, public.n_sq)


def phe_decrypt(c: PheCiphertext, keypair: PheKeypair) -> int:
    """The plaintext of c by CRT: m_p = L_p(c^(p-1) mod p^2) * h_p mod p
    with L_p(u) = (u - 1) / p, likewise m_q, joined mod n.

    For every c coprime to n, which includes everything phe_encrypt,
    phe_add, phe_scale and fuse_encrypted produce, this equals the
    textbook L(c^lam mod n^2) * mu mod n. A c that shares a factor with
    n encrypts nothing and decrypts differently from the textbook
    formula; only a forged reply can carry one, and the gateway's
    cross-check against its local fusion discards it.
    """
    k = keypair
    if not 0 <= c < k.public.n_sq:
        raise ParameterError("ciphertext out of range")
    m_p = (pow(c, k.p - 1, k.p_sq) - 1) // k.p * k.h_p % k.p
    m_q = (pow(c, k.q - 1, k.q_sq) - 1) // k.q * k.h_q % k.q
    return _crt(m_p, m_q, k.p, k.q, k.q_inv)


def fuse_encrypted(encrypted_scores: dict, integer_weights: dict,
                   public: PhePublicKey) -> PheCiphertext:
    """Homomorphic weighted sum of the encrypted quantized scores,
    prod c_m^w_m mod n^2.

    Computed entirely on ciphertexts: the scoring service never decrypts.
    The gateway later divides the decrypted value by
    SCORE_SCALE * sum(weights) to normalize. It is one simultaneous
    (Straus/Shamir) exponentiation: table[s] is the product of the c_m
    whose bit is set in s, and one chain of squarings serves every
    weight, multiplying in at each bit the entry its weights select.
    """
    weights = {m: w for m, w in integer_weights.items()
               if m in encrypted_scores}
    if sum(weights.values()) <= 0:
        raise ParameterError("weight sum over present modalities is zero")
    if any(w < 0 for w in weights.values()):
        raise ParameterError("scaling factor must be non-negative")
    n_sq = public.n_sq
    terms = [(encrypted_scores[m], w) for m, w in weights.items() if w]
    table = [1]
    for c, _ in terms:
        table += [t * c % n_sq for t in table]
    acc = 1  # multiplicative identity = Enc(0; 1)
    for bit in reversed(range(max(w for _, w in terms).bit_length())):
        acc = acc * acc % n_sq
        s = sum((w >> bit & 1) << i for i, (_, w) in enumerate(terms))
        if s:
            acc = acc * table[s] % n_sq
    return acc


def max_fused_plaintext(policy: FusionPolicy) -> int:
    """The largest weighted sum an honest encrypted fusion under `policy`
    reaches, SCORE_SCALE * sum of the integer weights. A Paillier n must
    exceed it; otherwise the sum wraps mod n and the gateway never
    believes the service."""
    return SCORE_SCALE * sum(policy.integer_weights().values())


def normalize_fused(decrypted: int, integer_weights: dict) -> float:
    """Map the decrypted weighted sum back to a score in [0, 1]."""
    total = sum(integer_weights.values())
    if total <= 0:
        raise ParameterError("weight sum is zero")
    return decrypted / (SCORE_SCALE * total)
