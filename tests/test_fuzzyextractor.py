import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faskit.algebra import PrimeField
from faskit.errors import CorruptedShareError, ParameterError
from faskit.fuzzyextractor import (CodeParams, HelperData, bits_to_hex,
                                   bits_to_scalar, decode, encode, fe_enroll,
                                   fe_reproduce, hex_to_bits, scalar_to_bits,
                                   xor_bits)


def block_failure_probability(r: int, p: float) -> float:
    # Binomial tail: a block decodes wrongly iff more than r//2 of its
    # r bits flip.
    return sum(math.comb(r, j) * p ** j * (1 - p) ** (r - j)
               for j in range(r // 2 + 1, r + 1))


def test_code_params_validation():
    CodeParams(m=4, r=1)
    with pytest.raises(ParameterError):
        CodeParams(m=4, r=2)     # even repetition has ties
    with pytest.raises(ParameterError):
        CodeParams(m=0, r=3)


def test_encode_known_answers():
    assert encode("10", CodeParams(m=2, r=3)) == "111000"
    assert encode("0", CodeParams(m=1, r=5)) == "00000"
    assert encode("101", CodeParams(m=3, r=3)) == "111000111"
    with pytest.raises(ParameterError):
        encode("10", CodeParams(m=3, r=3))


def test_decode_known_answers():
    assert decode("111001", CodeParams(m=2, r=3)) == "10"
    assert decode("11000", CodeParams(m=1, r=5)) == "0"
    code = CodeParams(m=4, r=3)
    word = encode("1011", code)
    assert decode(word, code) == "1011"
    with pytest.raises(ParameterError):
        decode("111", CodeParams(m=2, r=3))


def test_enroll_known_answers():
    code = CodeParams(m=2, r=3)
    assert fe_enroll("10", "110100", code).bits == "001100"
    assert fe_enroll("10", "000000", code).bits == "111000"
    assert fe_enroll("00", "110100", code).bits == "110100"
    with pytest.raises(ParameterError):
        fe_enroll("10", "1101", code)
    with pytest.raises(ParameterError, match="non-binary"):
        fe_enroll("10", "1101x0", code)


def test_reproduce_known_answers():
    code = CodeParams(m=2, r=3)
    helper = fe_enroll("10", "110100", code)
    assert fe_reproduce("110101", helper) == "10"   # one flipped bit
    assert fe_reproduce("110100", helper) == "10"   # exact template
    # Three flips in one block overwhelm the code; recovery is silently
    # wrong, not approximate.
    assert fe_reproduce("001100", helper) != "10"


def test_recovery_is_exact_within_decoding_radius():
    code = CodeParams(m=8, r=5)
    rng = random.Random(20)
    max_flips = code.r // 2
    for _ in range(1000):
        key = format(rng.getrandbits(code.m), f"0{code.m}b")
        w = format(rng.getrandbits(code.codeword_length),
                   f"0{code.codeword_length}b")
        helper = fe_enroll(key, w, code)
        noisy = list(w)
        for block in range(code.m):
            flips = rng.randrange(0, max_flips + 1)
            for pos in rng.sample(range(code.r), flips):
                i = block * code.r + pos
                noisy[i] = "1" if noisy[i] == "0" else "0"
        assert fe_reproduce("".join(noisy), helper) == key


def test_uncoupling_enrollment_is_a_bijection():
    # At L=8 (m=8, r=1), enumerate every template for two different
    # keys: each helper-data value appears exactly once, so uniform
    # templates give identical uniform helper-data distributions and the
    # helper data carries no information about which key was bound.
    code = CodeParams(m=8, r=1)
    distributions = {}
    for key in ("10110001", "01101110"):
        counts = Counter(
            fe_enroll(key, format(w, "08b"), code).bits for w in range(256))
        assert len(counts) == 256
        assert set(counts.values()) == {1}
        distributions[key] = counts
    assert distributions["10110001"] == distributions["01101110"]


def test_block_failure_rate_matches_binomial_tail():
    per_block = block_failure_probability(5, 0.1)
    assert abs(per_block - 0.00856) < 5e-6
    code = CodeParams(m=1, r=5)
    rng = random.Random(21)
    trials = 20000
    failures = 0
    for _ in range(trials):
        key = str(rng.getrandbits(1))
        w = format(rng.getrandbits(5), "05b")
        helper = fe_enroll(key, w, code)
        noisy = "".join(
            b if rng.random() >= 0.1 else ("1" if b == "0" else "0")
            for b in w)
        failures += fe_reproduce(noisy, helper) != key
    assert abs(failures / trials - per_block) < 0.004


def test_scalar_bits_round_trip():
    field = PrimeField(11)
    assert bits_to_scalar("0000", field) == 0
    assert bits_to_scalar("0100", field) == 4
    assert scalar_to_bits(4, 4) == "0100"
    rng = random.Random(22)
    big = PrimeField(2 ** 61 - 1)
    for _ in range(1000):
        value = rng.randrange(big.q)
        assert bits_to_scalar(scalar_to_bits(value, 61), big) == value


def test_scalar_bits_error_paths():
    field = PrimeField(11)
    with pytest.raises(CorruptedShareError):
        bits_to_scalar("1111", field)    # 15 >= 11
    with pytest.raises(ParameterError, match="5-bit scalar .* 4 bits"):
        scalar_to_bits(16, 4)
    with pytest.raises(ParameterError, match="negative"):
        scalar_to_bits(-1, 4)
    with pytest.raises(ParameterError):
        bits_to_scalar("01x0", field)


def test_xor_bits_checks_length():
    assert xor_bits("1100", "1010") == "0110"
    with pytest.raises(ParameterError):
        xor_bits("110", "1010")


def test_helper_data_hex_serialization():
    code = CodeParams(m=2, r=3)
    helper = fe_enroll("10", "110100", code)
    obj = helper.to_json()
    # L=6 packs into two nibbles with the tail zero-padded: 001100 -> 30.
    assert obj == {"bits": "30", "m": 2, "r": 3}
    assert HelperData.from_json(obj) == helper
    assert bits_to_hex("00110") == "30"
    assert hex_to_bits("30", 6) == "001100"
    with pytest.raises(ParameterError):
        hex_to_bits("31", 6)     # nonzero padding bits
    with pytest.raises(ParameterError):
        hex_to_bits("3", 6)      # too short


# The per-character bit-string code the int-based one replaced, kept as
# the oracle.
def xor_bits_by_char(a, b):
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def bits_to_hex_by_char(bits):
    padded = bits + "0" * (-len(bits) % 4)
    return "".join(format(int(padded[i:i + 4], 2), "x")
                   for i in range(0, len(padded), 4))


def hex_to_bits_by_char(hexstr, length):
    bits = "".join(format(int(ch, 16), "04b") for ch in hexstr)
    if len(bits) < length or "1" in bits[length:]:
        return None
    return bits[:length]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bits=st.text("01", max_size=70), other=st.randoms(),
       hexstr=st.text("0123456789abcdefABCDEF", max_size=20),
       length=st.integers(0, 84))
def test_bit_strings_match_the_per_character_code(bits, other, hexstr,
                                                   length):
    flipped = "".join(other.choice("01") for _ in bits)
    assert xor_bits(bits, flipped) == xor_bits_by_char(bits, flipped)
    assert bits_to_hex(bits) == bits_to_hex_by_char(bits)
    assert hex_to_bits(bits_to_hex(bits), len(bits)) == bits
    expected = hex_to_bits_by_char(hexstr, length)
    if expected is None:
        with pytest.raises(ParameterError):
            hex_to_bits(hexstr, length)
    else:
        assert hex_to_bits(hexstr, length) == expected


@pytest.mark.parametrize("hexstr", [
    "0x30", "+30", "-30", "3_0", " 30", "30 ", "3 0", "30\n", "\u0663\u0660",
    "3g", ["3", "0"], b"30", 48, None])
def test_hex_to_bits_accepts_only_hex_digits(hexstr):
    # int(x, 16) takes a 0x prefix, a sign, underscores, surrounding
    # whitespace and non-ASCII digits; a helper string must be plain hex.
    with pytest.raises(ParameterError):
        hex_to_bits(hexstr, 6)
