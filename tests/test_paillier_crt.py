"""The key holder's CRT Paillier arithmetic against the textbook formulas.

The oracle is Paillier's own decryption, L(c^lam mod n^2) * mu mod n with
lam = lcm(p-1, q-1) and mu = L(g^lam mod n^2)^-1 mod n; the reference
encryption is the public-key path of phe_encrypt.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faskit.authscore import (keypair_from_primes, phe_decrypt, phe_encrypt,
                              phe_keygen)
from faskit.errors import NonInvertibleError

KP64 = phe_keygen(64, random.Random(37))
N64 = KP64.public.n


def textbook_decrypt(c, kp):
    n, n_sq = kp.public.n, kp.public.n_sq
    lam = math.lcm(kp.p - 1, kp.q - 1)
    mu = pow((pow(kp.public.g, lam, n_sq) - 1) // n, -1, n)
    return (pow(c, lam, n_sq) - 1) // n * mu % n


def test_crt_decryption_matches_oracle_on_every_unit_mod_225():
    kp = keypair_from_primes(3, 5)
    units = [c for c in range(225) if math.gcd(c, 15) == 1]
    assert len(units) == 120
    for c in units:
        assert phe_decrypt(c, kp) == textbook_decrypt(c, kp), c


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7)])
def test_key_holder_encryption_matches_textbook_on_every_unit(p, q):
    # p = 3 makes the inner exponent n mod (p-1) equal to 1. m only
    # enters through 1 + m*n, so its two ends suffice.
    kp = keypair_from_primes(p, q)
    n, n_sq = kp.public.n, kp.public.n_sq
    units = [rho for rho in range(1, n) if math.gcd(rho, n) == 1]
    assert len(units) == (p - 1) * (q - 1)
    for rho in units:
        for m in (0, n - 1):
            expected = (1 + m * n) * pow(rho, n, n_sq) % n_sq
            assert phe_encrypt(m, kp, None, rho=rho) == expected, (m, rho)
            assert phe_encrypt(m, kp.public, None, rho=rho) == expected


def test_key_holder_encryption_matches_textbook_at_1024_bits():
    kp = phe_keygen(1024, random.Random(6))
    n, n_sq = kp.public.n, kp.public.n_sq
    assert n.bit_length() == 1024
    for rho in (2, 3, n - 1, n // 3, random.Random(1).randrange(1, n)):
        assert math.gcd(rho, n) == 1
        assert phe_encrypt(42, kp, None, rho=rho) == \
            (1 + 42 * n) * pow(rho, n, n_sq) % n_sq


def test_keypair_rejects_primes_sharing_a_factor_with_the_group_order():
    # n = 21, (p-1)(q-1) = 12: mu would not exist.
    with pytest.raises(NonInvertibleError):
        keypair_from_primes(3, 7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, N64 - 1), rho=st.integers(1, N64 - 1),
       seed=st.integers(0, 2 ** 32))
def test_key_holder_encryption_equals_public_key_encryption(m, rho, seed):
    assume(math.gcd(rho, N64) == 1)
    c = phe_encrypt(m, KP64, None, rho=rho)
    assert c == phe_encrypt(m, KP64.public, None, rho=rho)
    assert phe_decrypt(c, KP64) == textbook_decrypt(c, KP64) == m
    # Without an explicit rho both paths draw it by the same rng calls.
    holder, public = random.Random(seed), random.Random(seed)
    assert phe_encrypt(m, KP64, holder) == phe_encrypt(m, KP64.public,
                                                       public)
    assert holder.getstate() == public.getstate()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(c=st.integers(1, N64 * N64 - 1))
def test_crt_decryption_equals_oracle_on_units(c):
    assume(math.gcd(c, N64) == 1)
    assert phe_decrypt(c, KP64) == textbook_decrypt(c, KP64)
