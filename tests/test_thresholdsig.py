import gc
import inspect
import itertools
import random

import pytest

from faskit.algebra import FixedBaseComb, GroupParams, comb_table, get_group
from faskit.errors import (InsufficientSharesError, InvalidPartialError,
                           ParameterError, SessionError)
from faskit.sharing import ThresholdParams
from faskit.thresholdsig import (DeviceSigner, GroupPublicKey, KeyShare,
                                 Signature, combine,
                                 compute_challenge_scalar, keygen_dealer,
                                 sign_round1, sign_round2, verify)
from faskit.thresholdsig import _SESSION_WINDOW

from conftest import ScriptedRng, stub_challenge


def kat_signing_setup(kat_group):
    """The fully hand-worked instance: x=7, f(X)=7+4X over q=11."""
    pubkey, shares, comms = keygen_dealer(ThresholdParams(t=1, n=3),
                                          kat_group, ScriptedRng([7, 4]))
    return pubkey, shares, comms


def test_keygen_dealer_known_answer(kat_group):
    pubkey, shares, comms = kat_signing_setup(kat_group)
    assert pubkey.y == 13                                   # 2^7 mod 23
    assert [(s.index, s.value) for s in shares] == [(1, 0), (2, 4), (3, 8)]
    from faskit.sharing import verify_share
    assert all(verify_share(s, comms, kat_group) for s in shares)


def test_keygen_degenerates_to_plain_schnorr(sim_group):
    rng = random.Random(10)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=0, n=1), sim_group,
                                      rng)
    assert len(shares) == 1
    k, com = sign_round1(shares[0], sim_group, "s", rng)
    c = compute_challenge_scalar(com.commitment, pubkey.y, b"msg", sim_group)
    partial = sign_round2(shares[0], k, c, [1], sim_group.field, "s")
    sig = combine([com], [partial], pubkey, b"msg")
    assert verify(pubkey, b"msg", sig)


def test_sign_round1_known_answers(kat_group):
    share = KeyShare(2, 4)
    k, com = sign_round1(share, kat_group, "s", ScriptedRng([3]))
    assert (k, com.commitment) == (3, 8)                    # 2^3
    k, com = sign_round1(share, kat_group, "s", ScriptedRng([5]))
    assert (k, com.commitment) == (5, 9)                    # 2^5 = 32
    # A zero draw is resampled, never used as the nonce.
    k, com = sign_round1(share, kat_group, "s", ScriptedRng([0, 3]))
    assert (k, com.commitment) == (3, 8)


def test_challenge_scalar_is_deterministic(kat_group):
    c1 = compute_challenge_scalar(3, 13, b"challenge", kat_group)
    c2 = compute_challenge_scalar(3, 13, b"challenge", kat_group)
    assert c1 == c2
    assert 0 <= c1 < kat_group.q


def test_challenge_scalar_separates_messages():
    # Single-bit message changes move the challenge with overwhelming
    # probability; at a 256-bit order none of 100 random pairs collide.
    from faskit.algebra import get_group
    group = get_group("prod2048")
    rng = random.Random(11)
    y = group.power(5)
    R = group.power(9)
    for _ in range(100):
        message = bytearray(rng.randbytes(32))
        c1 = compute_challenge_scalar(R, y, bytes(message), group)
        bit = rng.randrange(256)
        message[bit // 8] ^= 1 << (bit % 8)
        c2 = compute_challenge_scalar(R, y, bytes(message), group)
        assert c1 != c2


def test_sign_round2_known_answers(kat_group):
    field = kat_group.field
    p2 = sign_round2(KeyShare(2, 4), 3, 2, [2, 3], field, "s")
    assert p2.s == 5                     # 3 + 2*3*4 = 27 mod 11
    p3 = sign_round2(KeyShare(3, 8), 5, 2, [2, 3], field, "s")
    assert p3.s == 6                     # 5 + 2*9*8 = 149 mod 11
    assert sign_round2(KeyShare(2, 4), 7, 0, [2, 3], field, "s").s == 7


def test_sign_round2_requires_membership(kat_group):
    with pytest.raises(ParameterError):
        sign_round2(KeyShare(1, 0), 3, 2, [2, 3], kat_group.field, "s")


def test_combine_and_verify_known_answer(kat_group):
    pubkey, shares, _ = kat_signing_setup(kat_group)
    stub = stub_challenge(2)
    k2, com2 = sign_round1(shares[1], kat_group, "s", ScriptedRng([3]))
    k3, com3 = sign_round1(shares[2], kat_group, "s", ScriptedRng([5]))
    p2 = sign_round2(shares[1], k2, 2, [2, 3], kat_group.field, "s")
    p3 = sign_round2(shares[2], k3, 2, [2, 3], kat_group.field, "s")
    sig = combine([com2, com3], [p2, p3], pubkey, b"m", challenge_fn=stub)
    assert (sig.R, sig.s) == (3, 0)      # R = 8*9 mod 23, s = 11 mod 11
    assert verify(pubkey, b"m", sig, challenge_fn=stub)
    # g^s = 1 and R*y^c = 3*169 = 3*8 = 24 = 1 mod 23: checked by hand.


def test_every_quorum_subset_signs_the_kat_instance(kat_group):
    pubkey, shares, _ = kat_signing_setup(kat_group)
    stub = stub_challenge(2)
    rng = random.Random(12)
    for subset in itertools.combinations(shares, 2):
        signer_set = [s.index for s in subset]
        nonced = [sign_round1(s, kat_group, "s", rng) for s in subset]
        partials = [sign_round2(s, k, 2, signer_set, kat_group.field, "s")
                    for s, (k, _) in zip(subset, nonced)]
        sig = combine([c for _, c in nonced], partials, pubkey, b"m",
                      challenge_fn=stub)
        assert verify(pubkey, b"m", sig, challenge_fn=stub)


def run_signing(pubkey, shares, group, message, rng, session="s"):
    signer_set = [s.index for s in shares]
    noncefuls = [sign_round1(s, group, session, rng) for s in shares]
    R = 1
    for _, com in noncefuls:
        R = R * com.commitment % group.p
    c = compute_challenge_scalar(R, pubkey.y, message, group)
    partials = [sign_round2(s, k, c, signer_set, group.field, session)
                for s, (k, _) in zip(shares, noncefuls)]
    return [com for _, com in noncefuls], partials


def test_completeness_over_random_instances(sim_group):
    # Any t+1-subset of any instance signs, and all subsets of one
    # instance verify under the same public key.
    rng = random.Random(13)
    for _ in range(200):
        t = rng.randrange(0, 4)
        n = rng.randrange(t + 1, 8)
        pubkey, shares, _ = keygen_dealer(ThresholdParams(t=t, n=n),
                                          sim_group, rng)
        subsets = list(itertools.combinations(shares, t + 1))
        chosen = rng.sample(subsets, min(3, len(subsets)))
        for subset in chosen:
            coms, partials = run_signing(pubkey, list(subset), sim_group,
                                         b"challenge bytes", rng)
            sig = combine(coms, partials, pubkey, b"challenge bytes")
            assert verify(pubkey, b"challenge bytes", sig)


def test_exactly_t_partials_never_verify(sim_group):
    # Rogue aggregation of only t responses (weights computed for the
    # full set) misses one Lagrange term; the forgery fails except with
    # probability about 1/q per trial, which at q >= 2^31 never shows up
    # in 200 trials.
    rng = random.Random(14)
    assert sim_group.q >= 2 ** 31
    for _ in range(200):
        t = rng.randrange(1, 4)
        n = rng.randrange(t + 1, 8)
        pubkey, shares, _ = keygen_dealer(ThresholdParams(t=t, n=n),
                                          sim_group, rng)
        quorum = rng.sample(shares, t + 1)
        coms, partials = run_signing(pubkey, quorum, sim_group, b"m", rng)
        with pytest.raises(InsufficientSharesError):
            combine(coms[:t], partials[:t], pubkey, b"m")
        R = 1
        for com in coms[:t]:
            R = R * com.commitment % sim_group.p
        s = sum(p.s for p in partials[:t]) % sim_group.q
        assert not verify(pubkey, b"m", Signature(R=R, s=s))


def test_tampered_partial_raises_invalid_partial(sim_group):
    rng = random.Random(15)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=2, n=5), sim_group,
                                      rng)
    quorum = shares[:3]
    coms, partials = run_signing(pubkey, quorum, sim_group, b"m", rng)
    for i in range(len(partials)):
        tampered = list(partials)
        bad = tampered[i]
        tampered[i] = type(bad)(index=bad.index,
                                s=(bad.s + 1) % sim_group.q,
                                session_id=bad.session_id)
        with pytest.raises(InvalidPartialError):
            combine(coms, tampered, pubkey, b"m")


def test_combine_rejects_mismatched_inputs(sim_group):
    rng = random.Random(16)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), sim_group,
                                      rng)
    coms, partials = run_signing(pubkey, shares[:2], sim_group, b"m", rng)
    other = type(partials[0])(index=partials[0].index, s=partials[0].s,
                              session_id="different")
    with pytest.raises(SessionError):
        combine(coms, [other, partials[1]], pubkey, b"m")
    coms3, partials3 = run_signing(pubkey, shares[1:], sim_group, b"m", rng)
    with pytest.raises(ParameterError):
        combine(coms, partials3, pubkey, b"m")


def test_verify_rejects_malformed_signatures(sim_group):
    rng = random.Random(17)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), sim_group,
                                      rng)
    coms, partials = run_signing(pubkey, shares[:2], sim_group, b"m", rng)
    sig = combine(coms, partials, pubkey, b"m")
    assert verify(pubkey, b"m", sig)
    assert not verify(pubkey, b"m", Signature(R=sig.R, s=sig.s ^ 1))
    assert not verify(pubkey, b"other", sig)
    assert not verify(pubkey, b"m", Signature(R=0, s=sig.s))
    assert not verify(pubkey, b"m", Signature(R=sig.R, s=sim_group.q))


def test_prod2048_verify_on_cold_and_warm_key_tables():
    # verify computes y^c on y's comb, whose entries are made on demand.
    group = get_group("prod2048")
    rng = random.Random(23)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), group, rng)
    coms, partials = run_signing(pubkey, shares[:2], group, b"m", rng)
    sig = combine(coms, partials, pubkey, b"m")
    bumped = Signature(R=sig.R, s=(sig.s + 1) % group.q)
    # Each order starts from an empty cache: the first check on a cold
    # table, the second on the table the first one filled.
    for first, second in ((sig, bumped), (bumped, sig)):
        comb_table.cache_clear()
        assert verify(pubkey, b"m", first) is (first is sig)
        assert verify(pubkey, b"m", second) is (second is sig)


def sim_signature(group, rng):
    """A fresh t=0, n=1 key and its signature on b"m"."""
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=0, n=1), group, rng)
    coms, partials = run_signing(pubkey, shares, group, b"m", rng)
    return pubkey, combine(coms, partials, pubkey, b"m")


def test_equal_keys_built_separately_share_one_table(sim_group):
    pubkey, sig = sim_signature(sim_group, random.Random(24))
    twin = GroupPublicKey(
        y=pubkey.y, params=pubkey.params,
        group=GroupParams(p=sim_group.p, q=sim_group.q, g=sim_group.g))
    comb_table.cache_clear()
    assert verify(pubkey, b"m", sig)
    assert comb_table.cache_info().misses == 2      # g's table and y's
    assert verify(twin, b"m", sig)
    assert comb_table.cache_info().misses == 2


def test_verifying_under_many_kept_keys_keeps_at_most_64_tables(sim_group):
    # A service provider keeps one key per user and verifies under each;
    # the tables behind those verifications stay bounded.
    rng = random.Random(25)
    keys = []
    for _ in range(74):
        pubkey, sig = sim_signature(sim_group, rng)
        assert verify(pubkey, b"m", sig)
        keys.append(pubkey)
    gc.collect()
    assert sum(isinstance(o, FixedBaseComb) for o in gc.get_objects()) <= 64


def test_verify_is_signer_set_blind():
    # The verification interface has no way to learn which devices
    # signed: it sees only the public key, message and signature.
    params = list(inspect.signature(verify).parameters)
    assert params == ["pubkey", "message", "sig", "challenge_fn"]


def test_signature_json_round_trip():
    sig = Signature(R=3, s=0)
    assert sig.to_json() == {"R": "3", "s": "0"}
    assert Signature.from_json(sig.to_json()) == sig


def test_device_signer_session_lifecycle(sim_group):
    rng = random.Random(18)
    pubkey, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), sim_group,
                                      rng)
    signer = DeviceSigner(shares[0], sim_group)
    com = signer.round1("sess-1", rng)
    assert signer.has_nonce("sess-1")
    with pytest.raises(SessionError):
        signer.round1("sess-1", rng)     # session ids are single-use
    partial = signer.round2("sess-1", 5, [1, 2])
    assert partial.index == 1
    assert not signer.has_nonce("sess-1")
    with pytest.raises(SessionError):
        signer.round2("sess-1", 5, [1, 2])   # nonce erased with use
    with pytest.raises(SessionError):
        signer.round1("sess-1", rng)     # still burned after round 2
    signer.round1("sess-2", rng)
    signer.abort_session("sess-2")
    assert not signer.has_nonce("sess-2")


def test_device_signer_forgets_sessions_past_the_window(sim_group):
    rng = random.Random(19)
    _, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), sim_group, rng)
    signer = DeviceSigner(shares[0], sim_group)
    for i in range(1100):
        signer.round1(f"sess-{i}", rng)
        signer.abort_session(f"sess-{i}")
    assert _SESSION_WINDOW == 1024
    assert len(signer._sessions) <= _SESSION_WINDOW
    with pytest.raises(SessionError):
        signer.round1("sess-1099", rng)   # the newest id is still refused
    signer.round1("sess-0", rng)          # the oldest was forgotten first


def test_device_signer_drops_pending_nonces_past_the_window(sim_group):
    rng = random.Random(20)
    _, shares, _ = keygen_dealer(ThresholdParams(t=1, n=3), sim_group, rng)
    signer = DeviceSigner(shares[0], sim_group)
    for i in range(3000):
        signer.round1(f"sess-{i}", rng)   # no round 2, no abort
    assert len(signer._sessions) <= _SESSION_WINDOW
    assert signer.has_nonce("sess-2999")
    assert not signer.has_nonce("sess-0")
