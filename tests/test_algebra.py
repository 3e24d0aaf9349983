import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faskit import algebra
from faskit.algebra import (FixedBaseComb, GroupParams, PrimeField, get_group,
                            group_names, is_probable_prime,
                            lagrange_coefficient, mod_inv, read_hex, typed)
from faskit.errors import NonInvertibleError, ParameterError
from faskit.fuzzyextractor import HelperData
from faskit.sharing import FeldmanCommitments, Share
from faskit.thresholdsig import Signature


def test_mod_inv_known_answers():
    assert mod_inv(1, 23) == 1
    assert mod_inv(15, 17) == 8         # 15*8 = 120 = 7*17 + 1
    assert mod_inv(4, 15) == 4          # 16 = 15 + 1


def test_mod_inv_always_inverts():
    rng = random.Random(2)
    for _ in range(500):
        m = rng.choice([17, 101, 2 ** 31 - 1, 10 ** 9 + 7])
        a = rng.randrange(1, m)
        assert a * mod_inv(a, m) % m == 1


def test_mod_inv_refuses_a_modulus_below_2():
    with pytest.raises(ParameterError, match="modulus"):
        mod_inv(3, 1)


def test_mod_inv_rejects_non_invertible():
    with pytest.raises(NonInvertibleError):
        mod_inv(0, 17)
    with pytest.raises(NonInvertibleError):
        mod_inv(17, 17)
    with pytest.raises(NonInvertibleError):
        mod_inv(6, 15)


def test_prime_field_validation():
    PrimeField(17)
    with pytest.raises(ParameterError):
        PrimeField(4)
    with pytest.raises(ParameterError):
        PrimeField(1)


def test_is_probable_prime_spot_checks():
    assert is_probable_prime(2 ** 31 - 1)
    assert not is_probable_prime(2 ** 31)
    assert not is_probable_prime(561)   # Carmichael number
    assert not any(is_probable_prime(n) for n in (-7, 0, 1))


def test_lagrange_known_answers():
    f17 = PrimeField(17)
    f11 = PrimeField(11)
    assert lagrange_coefficient([1], 1, f17) == 1
    assert lagrange_coefficient([1, 3], 1, f17) == 10   # 3 * inv(2) = 27
    assert lagrange_coefficient([2, 3], 3, f11) == 9    # 2 * inv(-1) = -2


def test_lagrange_rejects_bad_input():
    f17 = PrimeField(17)
    with pytest.raises(ParameterError):
        lagrange_coefficient([1, 1, 3], 1, f17)
    with pytest.raises(ParameterError):
        lagrange_coefficient([1, 3], 2, f17)
    with pytest.raises(ParameterError):
        lagrange_coefficient([0, 3], 3, f17)


def test_lagrange_interpolates_at_zero():
    # For random degree-d polynomials over the 32-bit sim field, the
    # coefficients recombine any d+1 evaluations back into f(0).
    field = get_group("sim").field
    q = field.q
    assert q >= 2 ** 31
    rng = random.Random(3)
    for _ in range(1000):
        degree = rng.randrange(0, 5)
        coeffs = [rng.randrange(q) for _ in range(degree + 1)]

        def f(x):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % q
            return acc

        points = rng.sample(range(1, 200), degree + 1)
        total = sum(lagrange_coefficient(points, j, field) * f(j)
                    for j in points) % q
        assert total == coeffs[0]


def test_group_params_validation():
    with pytest.raises(ParameterError):
        GroupParams(p=24, q=11, g=2)     # p not prime
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=12, g=2)     # q not prime
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=11, g=1)     # trivial generator
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=7, g=2)      # q does not divide p-1
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=11, g=5)     # 5^11 mod 23 != 1
    # q = 2 is prime, divides p - 1 and is the order of 4 mod 5, but
    # PrimeField, where the group's exponents live, needs q >= 3.
    with pytest.raises(ParameterError, match="field modulus"):
        GroupParams(p=5, q=2, g=4)


def test_named_groups_load_and_satisfy_invariants():
    assert group_names() == ["kat", "prod2048", "sim"]
    for name in group_names():
        group = get_group(name)
        assert pow(group.g, group.q, group.p) == 1
        assert (group.p - 1) % group.q == 0
    kat = get_group("kat")
    assert (kat.p, kat.q, kat.g) == (23, 11, 2)
    assert get_group("prod2048").p.bit_length() == 2048
    assert get_group("prod2048").q.bit_length() == 256
    assert get_group("sim").q >= 2 ** 31


def test_group_json_round_trip():
    for name in group_names():
        group = get_group(name)
        obj = group.to_json()
        assert set(obj) == {"p", "q", "g"}
        assert all(not v.startswith("0") or v == "0" for v in obj.values())
        assert GroupParams.from_json(obj) == group
    with pytest.raises(ParameterError):
        GroupParams.from_json({"p": "17"})
    with pytest.raises(ParameterError, match="field modulus"):
        GroupParams.from_json({"p": "5", "q": "2", "g": "4"})
    with pytest.raises(ParameterError):
        get_group("nope")


def test_shipped_moduli_are_the_named_ps_and_prime():
    # is_probable_prime takes each named p on trust; this is its proof.
    names = group_names()
    assert algebra._SHIPPED_MODULI == {get_group(n).p for n in names}
    assert not algebra._SHIPPED_MODULI & {get_group(n).q for n in names}
    assert all(algebra._miller_rabin(p) for p in algebra._SHIPPED_MODULI)


def test_only_the_named_moduli_skip_miller_rabin(monkeypatch):
    prod = get_group("prod2048")
    proven = []
    real = algebra._miller_rabin

    def recording(n):
        proven.append(n)
        return real(n)

    monkeypatch.setattr(algebra, "_miller_rabin", recording)
    assert GroupParams.from_json(prod.to_json()) == prod
    assert proven == [prod.q]
    proven.clear()
    GroupParams(p=103, q=17, g=64)
    assert proven == [103, 17]


def test_is_probable_prime_agrees_with_miller_rabin_near_the_set():
    p = algebra._PROD_P
    past_sieve = next(n for n in range(p + 2, p + 10 ** 4, 2)
                      if all(n % s for s in algebra._SMALL_PRIMES)
                      and not algebra._miller_rabin(n))
    composites = (p * algebra._PROD_Q, past_sieve)
    qs = tuple(get_group(name).q for name in group_names())
    for n in composites + qs:
        assert is_probable_prime(n) == algebra._miller_rabin(n) == (n in qs)


def test_typed_takes_only_the_exact_type():
    assert typed(2, int) == 2
    assert typed(0.5, int, float) == 0.5
    for value in (True, "2", 2.0, None):
        with pytest.raises(TypeError, match="expected int, got"):
            typed(value, int)


@pytest.mark.parametrize("value, number", [
    ("0", 0), ("1f", 31), ("1F", 31), ("00ff", 255),
    ("a" * 600, 10 * (16 ** 600 - 1) // 15)])
def test_read_hex_reads_hex_digits(value, number):
    assert read_hex(value) == number


# Each is taken by int(x, 16) or names a number some other way.
LAX_HEX = ["", "0x1f", "0X1f", "+1f", "-1f", "-0", " 1f", "1f ", "1f\n",
           "1_f", "\u0661", "\uff11", "1g", b"1f", 31, True, None, ["1f"]]


@pytest.mark.parametrize("value", LAX_HEX)
def test_read_hex_refuses_everything_else(value):
    with pytest.raises(ParameterError):
        read_hex(value)


@pytest.mark.parametrize("decode, obj", [
    (GroupParams.from_json, {"p": "0x17", "q": "b", "g": "2"}),
    (Share.from_json, {"index": True, "value": "1f"}),
    (Share.from_json, {"index": 1, "value": "+1f"}),
    (FeldmanCommitments.from_json, ["d", "1_0"]),
    (FeldmanCommitments.from_json, "d10"),
    (Signature.from_json, {"R": " 0x3", "s": "-0"}),
    (HelperData.from_json, {"bits": "30", "m": "2", "r": 3}),
    (HelperData.from_json, {"bits": "30", "m": 2, "r": True}),
], ids=["group-0x", "share-index-true", "share-plus", "commitment-underscore",
        "commitments-a-str", "signature-lax", "helper-m-str", "helper-r-true"])
def test_codecs_refuse_lax_encodings(decode, obj):
    with pytest.raises((TypeError, ParameterError)):
        decode(obj)


def test_element_membership_and_encoding(kat_group):
    assert kat_group.is_element(2)
    assert kat_group.is_element(13)
    assert not kat_group.is_element(5)   # order 22, not in subgroup
    assert not kat_group.is_element(0)
    assert kat_group.element_bytes == 1
    assert kat_group.encode_element(13) == b"\x0d"
    assert get_group("prod2048").element_bytes == 256


@pytest.mark.parametrize("name", ["kat", "sim", "prod2048"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multiple=st.integers(-3, 3), offset=st.integers(-2 ** 300, 2 ** 300),
       base=st.integers(0, 2 ** 2048), on_demand=st.booleans())
# The exponent is multiple * q + offset, so these are 0, 1, q - 1, q, -1
# and 2q + 5 in every group; base 0 stands for 1 and base 2^2048 for p - 1,
# which lies outside the order-q subgroup.
@example(multiple=0, offset=0, base=0, on_demand=False)
@example(multiple=0, offset=1, base=0, on_demand=True)
@example(multiple=1, offset=-1, base=0, on_demand=False)
@example(multiple=1, offset=-1, base=2 ** 2048, on_demand=True)
@example(multiple=1, offset=0, base=2 ** 2048, on_demand=False)
@example(multiple=0, offset=-1, base=5, on_demand=True)
@example(multiple=2, offset=5, base=5, on_demand=False)
def test_power_matches_builtin_pow(name, multiple, offset, base, on_demand):
    group = get_group(name)
    p, q = group.p, group.q
    exponent = multiple * group.q + offset
    assert group.power(exponent) == pow(group.g, exponent % q, p)
    # Any base in [1, p), any exponent in [0, q), on a cold table and
    # then on the warm one.
    base = 1 + base % (p - 1)
    e = exponent % q
    assert group.public_power(base, e) == pow(base, e, p)
    comb = FixedBaseComb(base, p, q, on_demand=on_demand)
    assert comb.power(e) == pow(base, e, p)
    assert comb.power(q - 1 - e) == pow(base, q - 1 - e, p)
    assert comb.power(e) == pow(base, e, p)
    # Exponents past the comb's 8a bits, or negative, are not truncated.
    wide = (1 << 8 * comb.a) + e
    assert comb.power(wide) == pow(base, wide, p)
    assert comb.power(-1 - e) == pow(base, -1 - e, p)
