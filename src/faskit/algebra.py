"""Exact modular arithmetic over prime fields and prime-order Schnorr groups.

Everything here is arbitrary-precision integer math: scalars are plain ints
in [0, q), group elements are plain ints in [1, p) living in the order-q
subgroup of Z_p*. Structured values (field, group parameters) are frozen
dataclasses validated on construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import NonInvertibleError, ParameterError

# A scalar is an int in [0, q); a group element an int in [1, p).
Scalar = int
GroupElement = int

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)
_MILLER_RABIN_ROUNDS = 40


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with bases drawn from a fixed seed,
    so the answer is deterministic for a given n."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0x5EED ^ (n & 0xFFFFFFFF))
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, by builtin pow.

    Works for any modulus, not just primes; raises NonInvertibleError
    when gcd(a, m) != 1 (in particular when a == 0 mod m).
    """
    if m < 2:
        raise ParameterError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertibleError(f"{a} is not invertible mod {m}") from None


class FixedBaseComb(dict):
    """base^e mod p on a Lim-Lee fixed-base comb (CRYPTO 1994) with 8
    teeth a = ceil(bitlen(q)/8) bits apart: a squarings and at most a table
    multiplications for any e < 2^(8a).

    The comb is its table: entry u, a pattern of bits j*a (j = 0..7), is
    the product of base^(2^(j*a)) over the bits set in u. A missing entry
    is made from two smaller ones, at the cost of one multiplication (a
    squarings for a single tooth). By default all 256 are made at once;
    with on_demand=True each is made the first time an exponent needs it,
    which makes the time of a call show which tooth patterns its exponent
    holds, so use it only for public exponents.
    """

    def __init__(self, base: int, p: int, q: int, on_demand: bool = False):
        super().__init__({0: 1, 1: base % p})
        self.base = base
        self.p = p
        self.a = -(-q.bit_length() // 8)
        self.teeth = sum(1 << j * self.a for j in range(8))
        if not on_demand:   # looking an entry up makes it
            for u in range(256):
                self[sum(1 << j * self.a for j in range(8) if u >> j & 1)]

    def __missing__(self, u: int) -> int:
        top = 1 << u.bit_length() - 1
        if u == top:    # tooth j: tooth j - 1 squared a times
            value = pow(self[top >> self.a], 1 << self.a, self.p)
        else:
            value = self[u ^ top] * self[top] % self.p
        self[u] = value
        return value

    def power(self, e: int) -> int:
        """base^e mod p, equal to pow(base, e, p) for every int e; one
        outside [0, 2^(8a)) goes to builtin pow."""
        a, teeth, p = self.a, self.teeth, self.p
        if e >> 8 * a:
            return pow(self.base, e, p)
        x = 1
        for i in range(a - 1, -1, -1):
            x = x * x % p
            column = e >> i & teeth
            if column:
                x = x * self[column] % p
        return x


@lru_cache(maxsize=64)
def comb_table(base: int, p: int, q: int,
               on_demand: bool, /) -> FixedBaseComb:
    """The one FixedBaseComb for base mod p, keyed by value: equal bases
    in groups built separately share it. At most 64 tables live, the
    least recently used dropped first; a base used again after its
    table was dropped builds it anew."""
    return FixedBaseComb(base, p, q, on_demand)


@dataclass(frozen=True)
class PrimeField:
    """The scalar field Z_q for a prime q >= 3."""

    q: int

    def __post_init__(self):
        if self.q < 3:
            raise ParameterError(f"field modulus must be >= 3, got {self.q}")
        if not is_probable_prime(self.q):
            raise ParameterError(f"field modulus {self.q} is not prime")


@dataclass(frozen=True)
class GroupParams:
    """A Schnorr group: the order-q subgroup of Z_p* generated by g.

    Exponent arithmetic lives in PrimeField(q); q divides p - 1. Every
    g^x goes through power() and every power of a public key through
    public_power(), each on its base's comb_table.
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ParameterError("group modulus p is not prime")
        if not is_probable_prime(self.q):
            raise ParameterError("subgroup order q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ParameterError("q does not divide p - 1")
        if self.g in (0, 1) or self.g >= self.p:
            raise ParameterError("generator g out of range")
        # Builtin pow: power() reduces its exponent mod q.
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g does not generate an order-q subgroup")

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @property
    def element_bytes(self) -> int:
        """Fixed width used to encode group elements: ceil(bitlen(p)/8)."""
        return (self.p.bit_length() + 7) // 8

    def is_element(self, x: int) -> bool:
        """Membership test for the order-q subgroup."""
        return 0 < x < self.p and pow(x, self.q, self.p) == 1

    def power(self, exponent: int) -> GroupElement:
        """g^exponent mod p, the exponent taken mod q. g's table is
        filled whole: its exponents (nonces, shares, the dealer's secret)
        are secret."""
        return comb_table(self.g, self.p, self.q, False).power(
            exponent % self.q)

    def public_power(self, base: int, exponent: int) -> int:
        """base^exponent mod p, equal to pow(base, exponent, p), for a
        public exponent. base's table is filled on demand, so the order
        in which its entries are made shows only the public exponents."""
        return comb_table(base, self.p, self.q, True).power(exponent)

    def encode_element(self, x: int) -> bytes:
        return x.to_bytes(self.element_bytes, "big")

    def to_json(self) -> dict:
        return {"p": format(self.p, "x"), "q": format(self.q, "x"),
                "g": format(self.g, "x")}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupParams":
        try:
            p, q, g = (read_hex(obj[key]) for key in "pqg")
        except (KeyError, TypeError, ParameterError) as exc:
            raise ParameterError(f"malformed group parameters: {exc}") from exc
        return cls(p=p, q=q, g=g)


# The two readers of a value from a scenario file or a message payload.

def typed(value, *types):
    """value itself when its exact type is one of types, so a bool is not
    an int and a numeric string is not a number; TypeError otherwise."""
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"expected {names}, got {value!r}")
    return value


# Spelled out: importing `string` for it raised peak RSS by ~0.3 MiB.
_HEX_DIGITS = "0123456789abcdefABCDEF"


def read_hex(value) -> int:
    """The number a non-empty str of [0-9a-fA-F] digits encodes. Anything
    else, even what int() takes in base 16 (a sign, a 0x prefix, spaces,
    underscores, non-ASCII digits), is a ParameterError."""
    if type(value) is not str or not value or value.strip(_HEX_DIGITS):
        raise ParameterError("not a str of hex digits [0-9a-fA-F]")
    return int(value, 16)


def lagrange_coefficient(index_set, j: int, field: PrimeField) -> Scalar:
    """Lagrange coefficient at zero for share index j within index_set.

    lambda_j = prod_{i in set, i != j} i * (i - j)^-1 mod q, so that
    sum_j lambda_j * f(j) = f(0) for any polynomial of degree < |set|.
    """
    indices = list(index_set)
    reduced = [i % field.q for i in indices]
    if len(set(reduced)) != len(reduced):
        raise ParameterError("share indices are not distinct mod q")
    if any(i == 0 for i in reduced):
        raise ParameterError("share index 0 is forbidden")
    if j not in indices:
        raise ParameterError(f"index {j} not in the index set")
    q = field.q
    num = 1
    den = 1
    for i in indices:
        if i == j:
            continue
        num = num * (i % q) % q
        den = den * ((i - j) % q) % q
    return num * mod_inv(den, q) % q


# Named parameter sets.  "kat" is the tiny known-answer-test group used by
# the worked examples; "sim" is a fast 64/32-bit group for simulation runs;
# "prod2048" is a 2048-bit group with 256-bit order, generated once and
# shipped as a constant.
_PROD_P = int(
    "80f00400ff5dd332cd69ee1319f89a72baa488c1bb217086e8f12cd14ba7601d"
    "10ffdce39a79dbca198e32dfe58cb8fb217134fc333ddbe7faae388671034232"
    "db0ad5ad715a348d1a55677cda6df04cb44cdc109548d60e6b04bceab1226cbe"
    "caeec6dbf921a634dff2858f19e4dae942ccf516521d5e9b429e2aaef83ea97a"
    "8d3b74bd26250c057c2f048b638cac3b2982939251a37bf40655a8cff276215e"
    "3567f02d9d5bfd17f16989ec2d895f03ab6ed3a5a31def371fa103d262167516"
    "756de6036bdfd118e0583d9375c2bf8b49d19a2a212ad727e653c196a1195137"
    "1a022930ccc51cf4ae00c8fd95a02f976afdc8170c30bbec90112520f114a989", 16)
_PROD_Q = int(
    "8ba5d5b6f195dd7788921108e773b8b1d801425484a4b40ce35283d432518ccd", 16)
_PROD_G = int(
    "22adfd62d7d231ebef342af46a700167290cd9ae9befae2da6fa57a4cbab0d7a"
    "510b901f17d3b2a883bfbb5f641c709402e9285c30845706ce17db71e0b9b86a"
    "8255b5355e8b0dd3282e60eb3da13bc0340160372e254d27d9e8199890529a53"
    "34e5775dcc4d01977d0d9e8920b36291ecac3e38dff05856032151f7fe712e7e"
    "c2050ef1468b92d813deb99892b1aa75c3935dee6c18e21ccf99b2e9b47a893f"
    "9d1655e0b8d9cca674fb0474a7f8c176bbb5b14f4f80f54e7b74a9bd5c68d993"
    "15aa54693b9f3630159f8130acd5874ed9a345691563d3896dce469a2e362d75"
    "6b64a330871df84a8d7ddb4ff83257dadc496b7ccba1439eac66cf06030cc7bc", 16)

_PARAMETER_SETS = {
    "kat": (23, 11, 2),
    "sim": (0x878783F6CBBAEC61, 0xA3F4A7CD, 0x09E79FFD329FD0C3),
    "prod2048": (_PROD_P, _PROD_Q, _PROD_G),
}

@cache
def get_group(name: str) -> GroupParams:
    """Look up a named parameter set (validated once, then cached)."""
    if name not in _PARAMETER_SETS:
        raise ParameterError(
            f"unknown group {name!r}; available: {sorted(_PARAMETER_SETS)}")
    p, q, g = _PARAMETER_SETS[name]
    return GroupParams(p=p, q=q, g=g)


def group_names() -> list:
    return sorted(_PARAMETER_SETS)
