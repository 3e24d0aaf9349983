import itertools
import random

import pytest

from faskit.algebra import PrimeField
from faskit.errors import ParameterError
from faskit.sharing import (FeldmanCommitments, Share, ThresholdParams,
                            reconstruct, share_secret, verify_share)

from conftest import ScriptedRng


def test_threshold_params_validation():
    ThresholdParams(t=0, n=1)
    ThresholdParams(t=2, n=5)
    with pytest.raises(ParameterError):
        ThresholdParams(t=3, n=3)
    with pytest.raises(ParameterError):
        ThresholdParams(t=-1, n=3)
    with pytest.raises(ParameterError):
        ThresholdParams(t=0, n=0)


def test_share_secret_known_answer(q17_group):
    # f(x) = 5 + 3x mod 17, coefficient injected through the rng hook.
    shares, comms = share_secret(5, ThresholdParams(t=1, n=3), q17_group,
                                 ScriptedRng([3]))
    assert [(s.index, s.value) for s in shares] == [(1, 8), (2, 11), (3, 14)]
    assert comms.commitments == (pow(64, 5, 103), pow(64, 3, 103))


def test_share_secret_constant_polynomial(kat_group):
    shares, comms = share_secret(9, ThresholdParams(t=0, n=1), kat_group,
                                 ScriptedRng([]))
    assert [(s.index, s.value) for s in shares] == [(1, 9)]
    assert comms.commitments == (pow(2, 9, 23),)


def test_feldman_commitments_known_answer(kat_group):
    # secret 7, f(X) = 7 + 4X over q=11: commitments are 2^7 and 2^4 mod 23.
    shares, comms = share_secret(7, ThresholdParams(t=1, n=3), kat_group,
                                 ScriptedRng([4]))
    assert comms.commitments == (13, 16)
    assert [(s.index, s.value) for s in shares] == [(1, 0), (2, 4), (3, 8)]


def test_verify_share_known_answers(kat_group):
    comms = FeldmanCommitments(commitments=(13, 16))
    assert verify_share(Share(2, 4), comms, kat_group)       # 13*16^2 = 16
    assert not verify_share(Share(2, 5), comms, kat_group)   # 2^5 = 9 != 16
    for s in range(11):
        single = FeldmanCommitments(commitments=(pow(2, s, 23),))
        assert verify_share(Share(1, s), single, kat_group)


@pytest.mark.parametrize("commitments", [(13 + 23, 16), (13, 16 + 23)],
                         ids=["C0-plus-p", "C1-plus-p"])
def test_verify_share_rejects_a_commitment_outside_the_group(kat_group,
                                                             commitments):
    # C_k + p is C_k mod p; only the encoding in [1, p) is accepted.
    comms = FeldmanCommitments(commitments=commitments)
    assert not verify_share(Share(2, 4), comms, kat_group)


def test_verify_share_rejects_index_zero(kat_group):
    comms = FeldmanCommitments(commitments=(13, 16))
    with pytest.raises(ParameterError):
        verify_share(Share(0, 4), comms, kat_group)


def test_reconstruct_known_answers():
    f17 = PrimeField(17)
    assert reconstruct([Share(1, 8), Share(3, 14)], f17) == 5
    assert reconstruct([Share(1, 8), Share(2, 11), Share(3, 14)], f17) == 5
    assert reconstruct([Share(1, 9)], f17) == 9


def test_reconstruct_rejects_duplicates():
    f17 = PrimeField(17)
    with pytest.raises(ParameterError):
        reconstruct([Share(1, 8), Share(1, 8)], f17)
    with pytest.raises(ParameterError):
        reconstruct([], f17)


def test_share_secret_parameter_errors(kat_group):
    rng = random.Random(0)
    with pytest.raises(ParameterError):
        share_secret(11, ThresholdParams(t=0, n=1), kat_group, rng)
    with pytest.raises(ParameterError):
        share_secret(3, ThresholdParams(t=1, n=11), kat_group, rng)


def test_random_sharings_reconstruct_from_every_subset(sim_group):
    field = sim_group.field
    rng = random.Random(4)
    for _ in range(500):
        t = rng.randrange(0, 5)
        n = rng.randrange(t + 1, 9)
        secret = rng.randrange(field.q)
        shares, comms = share_secret(secret, ThresholdParams(t=t, n=n),
                                     sim_group, rng)
        assert all(verify_share(s, comms, sim_group) for s in shares)
        for subset in itertools.combinations(shares, t + 1):
            assert reconstruct(subset, field) == secret


def test_single_share_gives_perfect_secrecy_at_desk_scale():
    # With q=17 and t=1, enumerate all 17*17 degree-1 polynomials: any
    # fixed share (i, v) is consistent with every candidate secret via
    # exactly one polynomial, so the share constrains the secret not at
    # all.
    q = 17
    for i, v in ((1, 8), (2, 11), (3, 3)):
        per_secret = {s: 0 for s in range(q)}
        for a0 in range(q):
            for a1 in range(q):
                if (a0 + a1 * i) % q == v:
                    per_secret[a0] += 1
        assert all(count == 1 for count in per_secret.values())


def test_flipping_any_share_value_fails_verification(sim_group):
    rng = random.Random(5)
    shares, comms = share_secret(12345, ThresholdParams(t=2, n=5),
                                 sim_group, rng)
    for share in shares:
        for delta in (1, rng.randrange(1, sim_group.q)):
            bad = Share(share.index, (share.value + delta) % sim_group.q)
            assert not verify_share(bad, comms, sim_group)


def test_share_and_commitment_serialization():
    share = Share(index=2, value=0x1F)
    assert share.to_json() == {"index": 2, "value": "1f"}
    assert Share.from_json(share.to_json()) == share
    comms = FeldmanCommitments(commitments=(13, 16))
    assert comms.to_json() == ["d", "10"]
    assert FeldmanCommitments.from_json(comms.to_json()) == comms
