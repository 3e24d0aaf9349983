"""Code-offset fuzzy commitment binding key shares to noisy templates.

At enrolment the key-share bits are spread over a repetition code and
XOR-masked with the device's sensor template w, producing helper data
HD = encode(key) ^ w. The key share and template are then discarded; only
HD persists (on the gateway device). At authentication a fresh template
w' unmasks HD ^ w' = encode(key) ^ (w ^ w'), and majority decoding removes
the noise e = w ^ w' as long as every r-bit block has at most floor(r/2)
flipped bits. Recovery is bit-exact or wrong, never approximate.

Because w -> encode(key) ^ w is a bijection for every fixed key, uniform
templates give uniformly distributed helper data regardless of the key:
HD leaks nothing about the bound share (it does remain correlated with
the template itself, which is why it stays on the gateway).

Bit strings are plain Python strings of '0'/'1'. Hex serialization packs
bits big-endian: bit 0 of the string is the most significant bit of the
first hex digit, with zero padding on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import PrimeField, Scalar, read_hex, typed
from .errors import CorruptedShareError, ParameterError

# A template is an L-bit string of '0'/'1' characters.
Template = str


@dataclass(frozen=True)
class CodeParams:
    """Repetition-code geometry: m message bits, each repeated r times."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"message length m must be >= 1, got {self.m}")
        if self.r < 1 or self.r % 2 == 0:
            raise ParameterError(
                f"repetition factor r must be odd and >= 1, got {self.r}")

    @property
    def codeword_length(self) -> int:
        return self.m * self.r


@dataclass(frozen=True)
class HelperData:
    """The public offset stored on the gateway: codeword XOR template.
    Its hex is made on the first to_json; every later dict shares it."""

    bits: str
    code: CodeParams

    @cached_property
    def _hex(self) -> str:
        return bits_to_hex(self.bits)

    def to_json(self) -> dict:
        return {"bits": self._hex, "m": self.code.m, "r": self.code.r}

    @classmethod
    def from_json(cls, obj: dict) -> "HelperData":
        code = CodeParams(m=typed(obj["m"], int), r=typed(obj["r"], int))
        return cls(bits=hex_to_bits(obj["bits"], code.codeword_length),
                   code=code)


def _check_bits(bits: str, expected_len: int, what: str) -> None:
    if len(bits) != expected_len:
        raise ParameterError(
            f"{what} must be {expected_len} bits, got {len(bits)}")
    if bits.strip("01"):
        raise ParameterError(f"{what} contains non-binary characters")


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ParameterError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return ""
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b")


def encode(key_bits: str, params: CodeParams) -> str:
    """Repetition-encode: each key bit repeated r times, in order."""
    _check_bits(key_bits, params.m, "key bits")
    return "".join(bit * params.r for bit in key_bits)


def decode(noisy: str, params: CodeParams) -> str:
    """Majority-vote each r-bit block (r odd, so there are no ties)."""
    _check_bits(noisy, params.codeword_length, "codeword")
    r = params.r
    out = []
    for i in range(0, len(noisy), r):
        block = noisy[i:i + r]
        out.append("1" if block.count("1") * 2 > r else "0")
    return "".join(out)


def fe_enroll(key_share_bits: str, template_w: Template,
              params: CodeParams) -> HelperData:
    """Bind an externally chosen key share to the enrolment template.

    Returns HD = encode(key) ^ w. The caller discards the key share and
    the template after this; only the helper data is stored.
    """
    _check_bits(template_w, params.codeword_length, "template")
    codeword = encode(key_share_bits, params)
    return HelperData(bits=xor_bits(codeword, template_w), code=params)


def fe_reproduce(template_w_prime: Template, helper: HelperData) -> str:
    """Recover the enrolled key bits from a fresh template.

    Exact iff w ^ w' has at most floor(r/2) flips in every r-bit block.
    A silently wrong result surfaces downstream as a share-verification
    or combine failure; nothing here can detect it locally.
    """
    _check_bits(template_w_prime, helper.code.codeword_length, "template")
    return decode(xor_bits(helper.bits, template_w_prime), helper.code)


def bits_to_scalar(key_bits: str, field: PrimeField) -> Scalar:
    """Big-endian integer value of the key bits; must fall inside the field."""
    if key_bits.strip("01"):
        raise ParameterError("key bits contain non-binary characters")
    value = int(key_bits, 2)
    if value >= field.q:
        raise CorruptedShareError(
            f"recovered bits decode to {value} >= field modulus {field.q}")
    return value


def scalar_to_bits(value: Scalar, m: int) -> str:
    """Big-endian bit string of value, zero-padded to m bits."""
    if value < 0:
        raise ParameterError("a scalar is never negative")
    if value.bit_length() > m:
        raise ParameterError(
            f"a {value.bit_length()}-bit scalar does not fit in {m} bits")
    return format(value, "b").zfill(m)


def bits_to_hex(bits: str) -> str:
    """Pack bits into lowercase hex, padding the tail nibble with zeros."""
    if not bits:
        return ""
    pad = -len(bits) % 4
    return format(int(bits, 2) << pad, f"0{(len(bits) + pad) // 4}x")


def hex_to_bits(hexstr: str, length: int) -> str:
    """The first `length` bits of a hex string whose remaining bits are
    zero. read_hex judges the string; "" holds no bits."""
    number = 0 if hexstr == "" else read_hex(hexstr)
    held = 4 * len(hexstr)
    if held < length:
        raise ParameterError(f"hex string holds {held} bits, need {length}")
    bits = format(number, f"0{held}b")
    if "1" in bits[length:]:
        raise ParameterError("nonzero padding bits in hex string")
    return bits[:length]
