import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from faskit import protocol
from faskit.algebra import get_group
from faskit.authscore import (FusionPolicy, Modality, max_fused_plaintext,
                              phe_encrypt, phe_keygen, quantize_score)
from faskit.errors import ParameterError, RegistrationError
from faskit.fuzzyextractor import CodeParams
from faskit.protocol import (Case, CaseStrategy, DumbDevice, FaspService,
                             Message, MessageType, PersonalDevice,
                             ServiceProvider, conclude, enroll,
                             message_from_wire, message_to_wire,
                             pd_run_authentication, plaintext_scores,
                             request_challenge, signing_message_bytes)
from faskit.protocol import _TRANSCRIPT_WINDOW, MAX_WIRE_BYTES
from faskit.sharing import ThresholdParams
from faskit.simulator import SIZE_CAPS, ScenarioConfig, _Trial
from faskit.thresholdsig import Signature
from faskit.thresholdsig import verify as verify_signature

from conftest import ScriptedRng

G, L, H = Modality.GAIT, Modality.LOCATION, Modality.HEARTBEAT
MODS = (G, L, H)
SIM = get_group("sim")


def make_policy(theta=0.7):
    return FusionPolicy(weights={G: 0.5, L: 0.3, H: 0.2}, theta=theta)


def make_user(case, t, n, group, seed=100, score_mode="local-bypass",
              theta=0.7, pd_holds_share=False):
    """Enrol a fresh user; devices read 0.9 on their modality by default."""
    rng = random.Random(seed)
    policy = make_policy(theta)
    code = CodeParams(m=group.q.bit_length(), r=3) if case is Case.CASE3 \
        else None
    strategy = CaseStrategy(case=case, pd_holds_share=pd_holds_share,
                            code=code)
    pd = PersonalDevice(user_id="user1", policy=policy,
                        score_mode=score_mode)
    first = 2 if pd_holds_share and case is not Case.CASE1 else 1
    dds = [DumbDevice(index=i, modalities=[MODS[(i - 1) % 3]])
           for i in range(first, n + 1)]
    templates = None
    if case is Case.CASE3:
        templates = {dd.index: format(
            rng.getrandbits(code.codeword_length),
            f"0{code.codeword_length}b") for dd in dds}
    params = ThresholdParams(t=t, n=n) if case is not Case.CASE1 \
        else ThresholdParams(t=0, n=1)
    paillier = phe_keygen(64, rng) if score_mode == "cloud-encrypted" \
        else None
    record = enroll(user_id="user1", strategy=strategy, params=params,
                    group=group, pd=pd, dds=dds, rng=rng,
                    enrolment_templates=templates,
                    paillier_keypair=paillier)
    sp = ServiceProvider(sp_id="sp1", rng=rng)
    sp.register_user(record)
    fasp = None
    if score_mode != "local-bypass":
        fasp = FaspService()
        fasp.register_policy("user1", policy,
                             paillier_pub=paillier.public if paillier
                             else None)
    for dd in dds:
        dd.current_scores = {dd.modalities[0]: 0.9}
        if templates:
            dd.current_template = templates[dd.index]
    return pd, dds, sp, fasp, rng, record


def authenticate(pd, dds, sp, rng, fasp=None, now=0, transit_hook=None):
    messages = protocol.authenticate(pd, dds, sp, now, rng, fasp, transit_hook)
    return messages, messages[-1]


def test_message_wire_round_trip():
    msg = Message(type=MessageType.CHALLENGE, sender="sp1", receiver="pd",
                  session_id="sp1-s000001",
                  payload={"sp_id": "sp1", "nonce": "00ff"})
    line = message_to_wire(msg)
    assert '"v":"FAS-v1"' in line
    assert message_from_wire(line) == msg
    with pytest.raises(ParameterError):
        message_from_wire(line.replace("FAS-v1", "FAS-v0"))


MALFORMED_WIRE_LINES = {
    "list": "[]",
    "number": "7",
    "version-only": '{"v":"FAS-v1"}',
    "unknown-type": message_to_wire(Message(
        type=MessageType.CHALLENGE, sender="sp1", receiver="pd",
        session_id="s", payload={})).replace("Challenge", "Teleport"),
    "not-json": "FAS-v1 Challenge",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WIRE_LINES))
def test_malformed_wire_line_is_a_parameter_error(name):
    with pytest.raises(ParameterError, match="malformed wire line"):
        message_from_wire(MALFORMED_WIRE_LINES[name])


def test_deeply_nested_wire_line_is_a_parameter_error():
    # json's decoder raises RecursionError for nesting this deep.
    with pytest.raises(ParameterError, match="malformed wire line"):
        message_from_wire("[" * 100_000)


def largest_honest_line():
    """The wire line of a CASE 3 HelperDelivery at simulator.SIZE_CAPS on
    prod2048, every value at its longest: n = 100 devices at t = 99 give
    100 commitments, each p - 1, and the helper bits of a 256-bit share
    repeated code_r = 101 times are all ones."""
    group = get_group("prod2048")
    n = SIZE_CAPS["n"]
    code = CodeParams(m=group.q.bit_length(), r=SIZE_CAPS["code_r"])
    msg = Message(
        type=MessageType.HELPER_DELIVERY, sender="pd", receiver=f"dd{n}",
        session_id="sp1-s999999",
        payload={"helper": {"bits": "f" * (code.codeword_length // 4),
                            "m": code.m, "r": code.r},
                 "commitments": [format(group.p - 1, "x")] * n})
    return msg, message_to_wire(msg)


def test_largest_honest_message_fits_under_the_wire_cap():
    msg, line = largest_honest_line()
    assert len(line) == 58_116 <= MAX_WIRE_BYTES
    assert message_from_wire(line) == msg


def test_wire_line_over_the_cap_is_refused_before_parsing(monkeypatch):
    msg, line = largest_honest_line()
    pad = MAX_WIRE_BYTES + 1 - len(line)
    line = message_to_wire(dataclasses.replace(
        msg, session_id=msg.session_id + "0" * pad))
    assert len(line) == MAX_WIRE_BYTES + 1

    def loads(text):
        raise AssertionError("the line reached json.loads")

    monkeypatch.setattr(protocol.json, "loads", loads)
    with pytest.raises(ParameterError, match="malformed wire line"):
        message_from_wire(line)


def test_wire_line_nested_under_the_cap_is_a_parameter_error():
    # 5,000 deep is under the cap and past json's recursion limit.
    line = "[" * 5_000
    assert len(line) < MAX_WIRE_BYTES
    with pytest.raises(ParameterError,
                       match="malformed wire line: maximum recursion"):
        message_from_wire(line)


def test_signing_message_byte_layout():
    assert signing_message_bytes("sp1", b"\x01\x02") == b"FAS-v1sp1\x01\x02"


def test_enroll_case2_known_answer(kat_group):
    # The dealer draws x=7 then coefficient 4: shares (1,0),(2,4),(3,8)
    # land on the devices and the SP record carries y = 13.
    policy = make_policy()
    pd = PersonalDevice(user_id="user1", policy=policy)
    dds = [DumbDevice(index=i, modalities=[G]) for i in (1, 2, 3)]
    strategy = CaseStrategy(case=Case.CASE2)
    record = enroll(user_id="user1", strategy=strategy,
                    params=ThresholdParams(t=1, n=3), group=kat_group,
                    pd=pd, dds=dds, rng=ScriptedRng([7, 4]))
    assert record.pubkey.y == 13
    values = [dd.persistent_state()["key_share_value"] for dd in dds]
    assert values == [0, 4, 8]
    assert "secret_key" not in pd.persistent_state()


def test_enroll_case3_leaves_no_key_bits_on_devices(sim_group):
    pd, dds, _, _, _, _ = make_user(Case.CASE3, 1, 3, sim_group)
    for dd in dds:
        state = dd.persistent_state()
        assert "key_share_value" not in state
        assert set(state) == {"device_id", "index", "modalities"}
    assert set(pd.helper_store) == {1, 2, 3}
    assert "secret_key" not in pd.persistent_state()


def test_enroll_case1_single_keypair(sim_group):
    pd, dds, sp, _, rng, record = make_user(Case.CASE1, 0, 1, sim_group)
    key = pd.persistent_state()["secret_key"]
    assert key is not None
    assert record.pubkey.params.n == 1
    # The gateway's signer lives across sessions.
    for _ in range(3):
        _, result = authenticate(pd, dds, sp, rng)
        assert result.payload == {"granted": True, "reason": "ok"}
        assert pd.persistent_state()["secret_key"] == key


def test_enroll_requires_enough_devices(sim_group):
    policy = make_policy()
    pd = PersonalDevice(user_id="user1", policy=policy)
    dds = [DumbDevice(index=1, modalities=[G])]
    with pytest.raises(ParameterError):
        enroll(user_id="user1", strategy=CaseStrategy(case=Case.CASE2),
               params=ThresholdParams(t=1, n=3), group=sim_group, pd=pd,
               dds=dds, rng=random.Random(0))


def test_failed_enrolment_writes_nothing(sim_group):
    # CASE2 with devices 1, 2, 4 and n=3: no device holds share 3. CASE3
    # with a gateway share and no template for device 3. Either way the
    # enrolment raises before it writes: no device holds a share, the
    # gateway holds no key material and no helper data.
    code = CodeParams(m=sim_group.q.bit_length(), r=3)
    bits = "0" * code.codeword_length
    attempts = [
        (CaseStrategy(case=Case.CASE2), (1, 2, 4), None),
        (CaseStrategy(case=Case.CASE3, pd_holds_share=True, code=code),
         (2, 3), {2: bits}),
    ]
    for strategy, indices, templates in attempts:
        pd = PersonalDevice(user_id="user1", policy=make_policy())
        dds = [DumbDevice(index=i, modalities=[G]) for i in indices]
        with pytest.raises(ParameterError, match="device 3|index 3"):
            enroll(user_id="user1", strategy=strategy,
                   params=ThresholdParams(t=1, n=3), group=sim_group, pd=pd,
                   dds=dds, rng=random.Random(0),
                   enrolment_templates=templates)
        assert all("key_share_value" not in dd.persistent_state()
                   for dd in dds)
        assert pd.helper_store == {}
        assert pd._own_signer is None and pd.pubkey is None
        assert pd.strategy is None


def enrol_devices(pd, dds, case, pd_holds_share, seed, **kwargs):
    """Enrol pd with dds under case (t=1, n=3) and give every device a
    reading of 0.9 and, for CASE3, the template it enrolled; a device's
    template depends on its index alone. Returns the SP record."""
    code = CodeParams(m=SIM.q.bit_length(), r=3)
    templates = {dd.index: format(
        random.Random(dd.index).getrandbits(code.codeword_length),
        f"0{code.codeword_length}b") for dd in dds}
    for dd in dds:
        dd.current_scores = {dd.modalities[0]: 0.9}
        dd.current_template = templates[dd.index]
    strategy = CaseStrategy(case=case, pd_holds_share=pd_holds_share,
                            code=code if case is Case.CASE3 else None)
    return enroll(user_id="user1", strategy=strategy,
                  params=ThresholdParams(t=1, n=3), group=SIM, pd=pd,
                  dds=dds, rng=random.Random(seed),
                  enrolment_templates=templates, **kwargs)


def gateway_and_devices_1_to_3(score_mode="local-bypass"):
    return (PersonalDevice(user_id="user1", policy=make_policy(),
                           score_mode=score_mode),
            [DumbDevice(index=i, modalities=[MODS[i - 1]]) for i in (1, 2, 3)])


def persistent_states(pd, dds):
    return [pd.persistent_state()] + [dd.persistent_state() for dd in dds]


REENROLMENTS = {
    "case1-to-case2": ((Case.CASE1, False), (Case.CASE2, False)),
    "case2-gateway-share-to-none": ((Case.CASE2, True), (Case.CASE2, False)),
    "case2-to-gateway-share": ((Case.CASE2, False), (Case.CASE2, True)),
    "case2-to-case3": ((Case.CASE2, False), (Case.CASE3, False)),
    "case3-to-case2": ((Case.CASE3, False), (Case.CASE2, False)),
}


@pytest.mark.parametrize("name", sorted(REENROLMENTS))
def test_reenrolment_replaces_every_slot(name):
    # The gateway and devices 1-3 are enrolled twice. The second
    # enrolment must leave exactly the state that it alone leaves on a
    # fresh gateway and fresh devices (no old share on a device or the
    # gateway, no old helper data), and then grant.
    before, after = REENROLMENTS[name]
    pd, dds = gateway_and_devices_1_to_3()
    enrol_devices(pd, dds, *before, seed=1)
    record = enrol_devices(pd, dds, *after, seed=2)
    fresh_pd, fresh_dds = gateway_and_devices_1_to_3()
    enrol_devices(fresh_pd, fresh_dds, *after, seed=2)
    states = persistent_states(fresh_pd, fresh_dds)
    assert persistent_states(pd, dds) == states
    sp = ServiceProvider(sp_id="sp1", rng=random.Random(3))
    sp.register_user(record)
    _, result = authenticate(pd, dds, sp, random.Random(4))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert persistent_states(pd, dds) == states


@pytest.mark.parametrize("case", [Case.CASE2, Case.CASE3])
def test_repeated_device_index_is_refused_before_any_write(case):
    pd, dds = gateway_and_devices_1_to_3()
    enrol_devices(pd, dds, case, False, seed=1)
    twin = DumbDevice(index=2, modalities=[L])
    states, pubkey = persistent_states(pd, dds + [twin]), pd.pubkey
    with pytest.raises(ParameterError, match="index 2"):
        enrol_devices(pd, [dds[0], dds[1], twin, dds[2]], case, True,
                      seed=2)
    assert persistent_states(pd, dds + [twin]) == states
    assert pd.pubkey is pubkey


@pytest.mark.parametrize("seed", [0, 2])
def test_case3_code_too_short_for_a_share_is_refused_before_any_draw(seed):
    # A 31-bit code cannot carry every 32-bit share of the sim group. The
    # enrolment is refused before the dealer draws a key, whatever key it
    # would draw: with seed 2 every share happens to fit in 31 bits.
    code = CodeParams(m=SIM.q.bit_length() - 1, r=3)
    pd, dds = gateway_and_devices_1_to_3()
    rng = random.Random(seed)
    state = rng.getstate()
    with pytest.raises(ParameterError, match="31-bit code .* 32-bit"):
        enroll(user_id="user1", strategy=CaseStrategy(case=Case.CASE3,
                                                      code=code),
               params=ThresholdParams(t=1, n=3), group=SIM, pd=pd, dds=dds,
               rng=rng, enrolment_templates={
                   i: "0" * code.codeword_length for i in (1, 2, 3)})
    assert rng.getstate() == state
    assert pd.pubkey is None and pd.helper_store == {}


def test_case3_strategy_needs_code_parameters():
    with pytest.raises(ParameterError, match="code"):
        CaseStrategy(case=Case.CASE3)


def test_challenges_are_fresh_32_byte_nonces(sim_group):
    _, _, sp, _, _, _ = make_user(Case.CASE2, 1, 3, sim_group)
    c1 = sp.issue_challenge("user1", sp.new_session(), now=0)
    c2 = sp.issue_challenge("user1", sp.new_session(), now=0)
    assert c1.payload["nonce"] != c2.payload["nonce"]
    assert len(bytes.fromhex(c1.payload["nonce"])) == 32
    with pytest.raises(RegistrationError):
        sp.issue_challenge("nobody", sp.new_session(), now=0)


def test_case2_flow_grants(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload["granted"] is True
    types = [m.type for m in messages]
    assert types.count(MessageType.SIGN_ROUND1) == 4   # 2 asks, 2 replies
    assert types.count(MessageType.SIGN_ROUND2) == 4
    assert types[-1] is MessageType.AUTH_RESULT


def test_case2_flow_reproduces_worked_signature(kat_group):
    # End-to-end check against the hand-worked instance: dealer draws
    # x=7 and coefficient 4, devices 2 and 3 are live and draw nonces 3
    # and 5, so R = g^8 = 3 and s = 8 + c*x mod 11 for the hashed
    # challenge c; the response must carry exactly that signature and the
    # SP must grant.
    from faskit.thresholdsig import compute_challenge_scalar
    policy = make_policy()
    pd = PersonalDevice(user_id="user1", policy=policy)
    dds = [DumbDevice(index=i, modalities=[MODS[(i - 1) % 3]])
           for i in (1, 2, 3)]
    record = enroll(user_id="user1", strategy=CaseStrategy(case=Case.CASE2),
                    params=ThresholdParams(t=1, n=3), group=kat_group,
                    pd=pd, dds=dds, rng=ScriptedRng([7, 4]))
    sp = ServiceProvider(sp_id="sp1", rng=random.Random(1))
    sp.register_user(record)
    for dd in dds:
        dd.current_scores = {dd.modalities[0]: 0.9}
    req, challenge = request_challenge("user1", sp, now=0)
    flow = pd_run_authentication(pd, dds[1:], challenge, now=0,
                                 rng=ScriptedRng([3, 5]))
    response = flow[-1]
    assert response.type is MessageType.AUTH_RESPONSE
    message = signing_message_bytes(
        "sp1", bytes.fromhex(challenge.payload["nonce"]))
    c = compute_challenge_scalar(3, record.pubkey.y, message, kat_group)
    assert response.payload["signature"] == {"R": "3",
                                             "s": format((8 + 7 * c) % 11,
                                                         "x")}
    assert sp.verify(response, now=0).payload["granted"] is True


def test_spoofing_with_at_most_t_devices_never_grants(sim_group):
    # Exhaustive over stolen-device subsets of size <= t: a rogue
    # gateway that skips the score gate cannot assemble a verifying
    # response, whether shares are stored (CASE2) or must be
    # regenerated from the thief's own readings (CASE3).
    from faskit.sharing import Share, verify_share
    from faskit.thresholdsig import (Signature, compute_challenge_scalar,
                                     sign_round1, sign_round2, verify)
    from faskit.fuzzyextractor import fe_reproduce
    t, n = 2, 5
    for case in (Case.CASE2, Case.CASE3):
        for seed in range(100):
            pd, dds, sp, _, rng, record = make_user(case, t, n, sim_group,
                                                    seed=1000 + seed)
            message = signing_message_bytes("sp1", bytes(32))
            for size in range(1, t + 1):
                for subset in itertools.combinations(dds, size):
                    shares = []
                    for dd in subset:
                        state = dd.persistent_state()
                        if "key_share_value" in state:
                            shares.append(Share(dd.index,
                                                state["key_share_value"]))
                        elif dd.index in pd.helper_store:
                            fake = format(
                                rng.getrandbits(len(dd.current_template)),
                                f"0{len(dd.current_template)}b")
                            bits = fe_reproduce(
                                fake, pd.helper_store[dd.index])
                            value = int(bits, 2)
                            if value < sim_group.q and verify_share(
                                    Share(dd.index, value),
                                    pd.commitments, sim_group):
                                shares.append(Share(dd.index, value))
                    if case is Case.CASE3:
                        # Regeneration from foreign readings fails the
                        # commitment check; the thief gets no shares.
                        assert shares == []
                        continue
                    signer_set = [s.index for s in shares]
                    noncefuls = [sign_round1(s, sim_group, "x", rng)
                                 for s in shares]
                    R = 1
                    for _, com in noncefuls:
                        R = R * com.commitment % sim_group.p
                    c = compute_challenge_scalar(R, record.pubkey.y,
                                                 message, sim_group)
                    s_total = sum(
                        sign_round2(s, k, c, signer_set, sim_group.field,
                                    "x").s
                        for s, (k, _) in zip(shares, noncefuls)) \
                        % sim_group.q
                    assert not verify(record.pubkey, message,
                                      Signature(R=R, s=s_total))


def test_case3_flow_grants_and_erases_transient_shares(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE3, 1, 3, sim_group)
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload["granted"] is True
    assert any(m.type is MessageType.HELPER_DELIVERY for m in messages)
    for dd in dds:
        assert dd._signer is None
        assert "key_share_value" not in dd.persistent_state()


def deliveries_to_dd1(trial, hooks):
    """Run one session of `trial`'s user per transit hook in `hooks`
    (None for none); the HelperDelivery to dd1 each session sent."""
    deliveries = []

    def spy(hook):
        def deliver(msg):
            if msg.type is MessageType.HELPER_DELIVERY \
                    and msg.receiver == "dd1":
                deliveries.append(msg)
            return hook(msg) if hook else msg
        return deliver

    for now, hook in enumerate(hooks):
        protocol.authenticate(trial.pd, trial.dds, trial.sp, now,
                              trial.rng_nonce, transit_hook=spy(hook))
    return deliveries


def case3_trial():
    return _Trial(ScenarioConfig(case=3, t=1, n=3, trials=1),
                  random.Random(4))


def test_case3_deliveries_share_the_enrolment_encoding():
    first, second = deliveries_to_dd1(case3_trial(), [None, None])
    assert first.payload == second.payload
    assert first.payload["helper"] is not second.payload["helper"]
    assert first.payload["helper"]["bits"] is second.payload["helper"]["bits"]
    assert first.payload["commitments"] is not second.payload["commitments"]
    assert all(a is b for a, b in zip(first.payload["commitments"],
                                      second.payload["commitments"]))


def test_case3_delivery_edited_in_place_changes_only_that_delivery():
    def append_commitment(msg):
        if msg.type is MessageType.HELPER_DELIVERY:
            msg.payload["commitments"].append("1")
        return msg

    _, untouched = deliveries_to_dd1(case3_trial(), [None, None])
    trial = case3_trial()
    commitments = trial.pd.commitments.to_json()
    state = trial.pd.persistent_state()
    edited, following = deliveries_to_dd1(trial, [append_commitment, None])
    assert edited.payload["commitments"] == commitments + ["1"]
    assert following.payload == untouched.payload
    assert trial.pd.commitments.to_json() == commitments
    assert trial.pd.persistent_state() == state


def test_low_score_aborts_before_any_signing(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    # The worked fusion example: 0.5*0.8 + 0.3*0.5 + 0.2*0 = 0.55 < 0.7.
    for dd, score in zip(dds, (0.8, 0.5, 0.0)):
        dd.current_scores = {dd.modalities[0]: score}
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload == {"granted": False, "reason": "score"}
    # The gateway's own denial ends the session; the SP judges nothing.
    assert result is pd.transcript[-1]
    assert all(m.type is not MessageType.AUTH_RESULT for m in sp.transcript)
    signing = [m for m in messages if m.type in (MessageType.SIGN_ROUND1,
                                                 MessageType.SIGN_ROUND2,
                                                 MessageType.HELPER_DELIVERY)]
    assert signing == []


def test_losing_any_single_device_does_not_lock_out(sim_group):
    # n - 1 >= t + 1 keeps every single-device failure invisible to the
    # user, for both persistent-share and regenerated-share cases.
    for case in (Case.CASE2, Case.CASE3):
        for n in range(3, 7):
            t = n - 2
            pd, dds, sp, _, rng, _ = make_user(case, t, n, sim_group,
                                               seed=200 + n)
            for missing in range(len(dds)):
                live = [dd for i, dd in enumerate(dds) if i != missing]
                _, result = authenticate(pd, live, sp, rng)
                assert result.payload["granted"] is True, \
                    f"{case} n={n} without device {missing}"


def test_case3_survives_one_noisy_device(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE3, 1, 3, sim_group)
    # One device measures someone else entirely; its share regeneration
    # fails the commitment check and the other two carry the quorum.
    dds[0].current_template = "0" * len(dds[0].current_template)
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload["granted"] is True
    helper_targets = {m.receiver for m in messages
                      if m.type is MessageType.HELPER_DELIVERY}
    assert helper_targets == {"dd1", "dd2", "dd3"}
    round1_senders = {m.sender for m in messages
                      if m.type is MessageType.SIGN_ROUND1
                      and m.sender != "pd"}
    assert "dd1" not in round1_senders


def test_too_few_live_devices_denies(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 2, 4, sim_group)
    _, result = authenticate(pd, dds[:2], sp, rng)
    assert result.payload == {"granted": False,
                              "reason": "insufficient-devices"}


def test_pd_held_share_participates(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 2, 4, sim_group,
                                       pd_holds_share=True)
    assert len(dds) == 3
    assert "key_share_value" in pd.persistent_state()
    # Two live DDs plus the PD's own share make the t+1 = 3 quorum.
    _, result = authenticate(pd, dds[:2], sp, rng)
    assert result.payload["granted"] is True


def test_replayed_response_is_denied(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload["granted"] is True
    response = [m for m in messages
                if m.type is MessageType.AUTH_RESPONSE][-1]
    second = sp.verify(response, now=0)
    assert second.payload == {"granted": False, "reason": "replay"}


def test_expired_nonce_is_denied(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    req, challenge = request_challenge("user1", sp, now=0)
    flow = pd_run_authentication(pd, dds, challenge, now=0, rng=rng)
    response = flow[-1]
    assert response.type is MessageType.AUTH_RESPONSE
    result = sp.verify(response, now=101)
    assert result.payload == {"granted": False, "reason": "expired"}


def test_response_bound_to_wrong_sp_is_denied(sim_group):
    # A signature over another provider's identity fails even with a
    # valid nonce: the signed bytes bind sp_id.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    req, challenge = request_challenge("user1", sp, now=0)
    tampered = Message(type=MessageType.CHALLENGE, sender="sp2",
                       receiver="pd", session_id=challenge.session_id,
                       payload={"sp_id": "sp2",
                                "nonce": challenge.payload["nonce"]})
    flow = pd_run_authentication(pd, dds, tampered, now=0, rng=rng)
    response = flow[-1]
    assert response.type is MessageType.AUTH_RESPONSE
    result = sp.verify(response, now=0)
    assert result.payload == {"granted": False, "reason": "signature"}


def respace(nonce):
    """The nonce's hex digits with a space between its bytes."""
    return " ".join(nonce[i:i + 2] for i in range(0, len(nonce), 2))


# Each alters an issued Challenge before it reaches the gateway.
MALFORMED_CHALLENGES = {
    "sp-id-an-int": lambda c: dataclasses.replace(
        c, payload=dict(c.payload, sp_id=5)),
    "nonce-not-hex": lambda c: dataclasses.replace(
        c, payload=dict(c.payload, nonce="zz")),
    "nonce-none": lambda c: dataclasses.replace(
        c, payload=dict(c.payload, nonce=None)),
    "nonce-respaced": lambda c: dataclasses.replace(
        c, payload=dict(c.payload, nonce=respace(c.payload["nonce"]))),
    "nonce-one-byte": lambda c: dataclasses.replace(
        c, payload=dict(c.payload, nonce="ab")),
    "payload-a-list": lambda c: dataclasses.replace(c, payload=[1]),
    "session-id-a-list": lambda c: dataclasses.replace(c, session_id=["x"]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHALLENGES))
def test_malformed_challenge_is_denied_before_any_device(sim_group, name):
    # The gateway judges the Challenge before it contacts a device: a
    # field of the wrong type, or a nonce other than 2 * NONCE_BYTES hex
    # digits, ends in its own denial and nothing reaches the SP.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    _, challenge = request_challenge("user1", sp, now=0)
    flow = pd_run_authentication(
        pd, dds, MALFORMED_CHALLENGES[name](challenge), now=0, rng=rng)
    assert [m.payload for m in flow] == [
        {"granted": False, "reason": "challenge"}]
    assert conclude(pd, sp, flow, now=0) == flow
    assert not any(dd.transcript for dd in dds)


@pytest.mark.parametrize("key, recode", [
    ("R", lambda v: "0x" + v), ("s", lambda v: " " + v)],
    ids=["R-0x", "s-space"])
def test_lax_signature_encoding_is_denied(sim_group, key, recode):
    # The signature that verifies, with one field re-encoded in a form
    # int(x, 16) would take: the SP does not read it.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)

    def mutate(payload):
        payload["signature"] = recode_field(key, recode)(
            dict(payload["signature"]))
        return payload

    _, result = authenticate(pd, dds, sp, rng, transit_hook=replace_first(
        MessageType.AUTH_RESPONSE, mutate, by_pd=True))
    assert result.payload == {"granted": False, "reason": "signature"}


def test_garbage_signature_is_denied(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    req, challenge = request_challenge("user1", sp, now=0)
    response = Message(type=MessageType.AUTH_RESPONSE, sender="pd",
                       receiver="sp1", session_id=challenge.session_id,
                       payload={"user_id": "user1",
                                "nonce": challenge.payload["nonce"],
                                "signature": Signature(R=2, s=3).to_json()})
    result = sp.verify(response, now=0)
    assert result.payload == {"granted": False, "reason": "signature"}
    unknown = Message(type=MessageType.AUTH_RESPONSE, sender="pd",
                      receiver="sp1", session_id="x",
                      payload={"user_id": "user1", "nonce": "ab" * 32,
                               "signature": Signature(R=2, s=3).to_json()})
    assert sp.verify(unknown, now=0).payload["reason"] == "nonce-unknown"


def test_cloud_encrypted_flow_keeps_scores_private(sim_group):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE3, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    messages, result = authenticate(pd, dds, sp, rng, fasp=fasp)
    assert result.payload["granted"] is True
    requests = [m for m in messages if m.type is MessageType.SCORE_REQUEST]
    assert requests, "cloud mode must consult the scoring service"
    for msg in requests:
        assert "sp_id" not in msg.payload       # unlinkability
        assert "scores" not in msg.payload      # no plaintext scores
        assert "ciphertexts" in msg.payload
    assert fasp.state_snapshot() == {"plaintext_scores": []}


def test_cloud_plain_flow_exposes_scores_to_fasp(sim_group):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-plain")
    _, result = authenticate(pd, dds, sp, rng, fasp=fasp)
    assert result.payload["granted"] is True
    assert fasp.state_snapshot()["plaintext_scores"] != []


def test_scores_added_to_an_encrypted_request_show_in_the_snapshot(
        sim_group):
    # A forger adds plaintext scores to an encrypted request in transit.
    # The service now holds them in its transcript, and its inspection
    # reports them.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    _, result = authenticate(pd, dds, sp, rng, fasp=fasp,
                             transit_hook=replace_first(
                                 MessageType.SCORE_REQUEST,
                                 set_field("scores", {"gait": 90}),
                                 by_pd=True))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert fasp.state_snapshot() == {"plaintext_scores": [("gait", 90)]}


def test_forged_score_response_cannot_open_the_gate(sim_group):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-plain")
    for dd in dds:
        dd.current_scores = {dd.modalities[0]: 0.1}

    def inflate(msg):
        if msg.type is MessageType.SCORE_RESPONSE:
            forged = dict(msg.payload)
            forged["value"] = 1.0
            return Message(type=msg.type, sender=msg.sender,
                           receiver=msg.receiver,
                           session_id=msg.session_id, payload=forged)
        return msg

    _, result = authenticate(pd, dds, sp, rng, fasp=fasp,
                             transit_hook=inflate)
    assert result.payload == {"granted": False, "reason": "score"}


def replace_first(msg_type, mutate, by_pd=False):
    """A transit hook that applies `mutate` to the payload of the first
    message of `msg_type` sent by the PD if `by_pd`, else by anyone but
    the PD."""
    done = []

    def hook(msg):
        if msg.type is not msg_type or (msg.sender == "pd") != by_pd \
                or done:
            return msg
        done.append(msg)
        return Message(type=msg.type, sender=msg.sender,
                       receiver=msg.receiver, session_id=msg.session_id,
                       payload=mutate(dict(msg.payload)))
    return hook


def set_field(key, value):
    def mutate(payload):
        payload[key] = value
        return payload
    return mutate


def recode_field(key, recode):
    """Replace the honest value v of payload[key] by recode(v)."""
    def mutate(payload):
        payload[key] = recode(payload[key])
        return payload
    return mutate


@pytest.mark.parametrize("score_mode, key, forged", [
    ("cloud-encrypted", "ciphertext", "-1"),
    ("cloud-encrypted", "ciphertext", "zz"),
    ("cloud-encrypted", "ciphertext", "n^2"),
    ("cloud-encrypted", "ciphertext", None),
    ("cloud-plain", "value", "zz"),
    ("cloud-plain", "value", "nan"),
    # The honest reply re-encoded in a form float() or int(x, 16) takes.
    pytest.param("cloud-plain", "value", str, id="value-lax-str"),
    pytest.param("cloud-encrypted", "ciphertext", lambda c: "0x" + c,
                 id="ciphertext-lax-0x"),
])
def test_unparseable_score_response_falls_back_to_local_fusion(
        sim_group, score_mode, key, forged):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode=score_mode)
    if forged == "n^2":
        forged = format(pd.paillier.public.n_sq, "x")
    mutate = recode_field(key, forged) if callable(forged) \
        else set_field(key, forged)
    # Every device reads 0.9, so local fusion opens the gate.
    result, score, _, _ = spied_authentication(
        pd, dds, sp, fasp, rng,
        replace_first(MessageType.SCORE_RESPONSE, mutate))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert score.mode == "local"


def test_forged_reply_under_a_large_key_falls_back_to_local_fusion(
        sim_group):
    # Under a Paillier key of more than about 1,052 bits, the forged reply
    # Enc(n - 1) decrypts to a sum too large to divide into a float. No
    # honest fusion sums that high, so the PD gates on its own fusion.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    keypair = phe_keygen(1100, random.Random(5))
    use_paillier(pd, fasp, keypair)
    forged = format(phe_encrypt(keypair.public.n - 1, keypair,
                                random.Random(6)), "x")
    result, score, _, _ = spied_authentication(
        pd, dds, sp, fasp, rng, replace_first(
            MessageType.SCORE_RESPONSE, set_field("ciphertext", forged)))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert score.mode == "local"


def bump_field(key, modulus):
    return recode_field(
        key, lambda v: format((int(v, 16) + 1) % modulus, "x"))


SIGNING_MUTATIONS = {
    "round1-R-not-hex": (MessageType.SIGN_ROUND1, set_field("R", "zz")),
    "round1-R-changed": (MessageType.SIGN_ROUND1, bump_field("R", SIM.p)),
    "round1-R-0x-prefixed": (MessageType.SIGN_ROUND1,
                             recode_field("R", lambda v: "0x" + v)),
    "round1-foreign-index": (MessageType.SIGN_ROUND1, set_field("index", 2)),
    "round1-index-true": (MessageType.SIGN_ROUND1, set_field("index", True)),
    "round2-s-not-hex": (MessageType.SIGN_ROUND2, set_field("s", "zz")),
    "round2-s-changed": (MessageType.SIGN_ROUND2, bump_field("s", SIM.q)),
    "round2-s-space-prefixed": (MessageType.SIGN_ROUND2,
                                recode_field("s", lambda v: " " + v)),
    "round2-foreign-index": (MessageType.SIGN_ROUND2, set_field("index", 2)),
}


@pytest.mark.parametrize("case", [Case.CASE2, Case.CASE3])
@pytest.mark.parametrize("mutation", sorted(SIGNING_MUTATIONS))
def test_malformed_signing_answer_is_an_invalid_partial(sim_group, case,
                                                        mutation):
    # Signers 1 and 2 make the quorum; each mutation hits signer 1's
    # answer, and a foreign index names signer 2.
    pd, dds, sp, _, rng, _ = make_user(case, 1, 3, sim_group)
    msg_type, mutate = SIGNING_MUTATIONS[mutation]
    messages, result = authenticate(pd, dds, sp, rng, transit_hook=
                                    replace_first(msg_type, mutate))
    assert result.payload == {"granted": False,
                              "reason": "invalid-partial"}
    assert all(m.type is not MessageType.AUTH_RESPONSE for m in messages)


def test_failed_ceremony_leaves_no_nonce_on_the_gateway(sim_group):
    # The PD's own share signs first; dd2's bad round-1 answer then ends
    # the ceremony before the PD's round 2.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                       pd_holds_share=True)
    messages, result = authenticate(pd, dds, sp, rng, transit_hook=
                                    replace_first(MessageType.SIGN_ROUND1,
                                                  set_field("R", "zz")))
    assert result.payload["reason"] == "invalid-partial"
    assert not pd._own_signer.has_nonce(messages[0].session_id)
    assert list(pd._own_signer._sessions.values()) == [None]


@pytest.mark.parametrize("pd_holds_share", [False, True])
def test_failed_ceremony_leaves_no_nonce_on_a_device(sim_group,
                                                     pd_holds_share):
    # The first device to answer round 1 answers garbage, after it drew
    # its nonce; the ceremony ends there.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                       pd_holds_share=pd_holds_share)
    messages, result = authenticate(pd, dds, sp, rng, transit_hook=
                                    replace_first(MessageType.SIGN_ROUND1,
                                                  set_field("R", "zz")))
    assert result.payload["reason"] == "invalid-partial"
    session = messages[0].session_id
    assert dds[0]._signer._sessions == {session: None}
    assert not any(dd._signer.has_nonce(session) for dd in dds)


@pytest.mark.parametrize("case, pd_holds_share", [
    (Case.CASE1, False), (Case.CASE2, False), (Case.CASE2, True)])
def test_reused_session_id_is_denied(sim_group, case, pd_holds_share):
    # A provider that restarts under the same sp_id numbers its sessions
    # from 1 again, so the gateway's first signer sees a session id it
    # has already signed under.
    pd, dds, sp, _, rng, record = make_user(case, 1, 3, sim_group,
                                            pd_holds_share=pd_holds_share)
    assert authenticate(pd, dds, sp, rng)[1].payload["granted"] is True
    restarted = ServiceProvider(sp_id=sp.sp_id, rng=rng)
    restarted.register_user(record)
    messages, result = authenticate(pd, dds, restarted, rng)
    assert result.payload == {"granted": False, "reason": "session-reused"}
    session = messages[0].session_id
    signers = [pd._own_signer] + [dd._signer for dd in dds]
    assert not any(s.has_nonce(session) for s in signers if s is not None)
    assert all(m.type is not MessageType.SIGN_ROUND2 for m in messages)


def test_device_without_a_current_template_regenerates_nothing(sim_group):
    pd, dds, _, _, _, _ = make_user(Case.CASE3, 1, 3, sim_group)
    dd = dds[0]
    dd.current_template = None
    assert dd.receive_helper(pd.helper_store[dd.index], pd.commitments,
                             sim_group) is None
    assert dd._signer is None


def test_device_with_no_stored_helper_sits_out(sim_group):
    # dd1's helper data is gone, so it gets no delivery and does not
    # sign; dd2 and dd3 still make the quorum of 2.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE3, 1, 3, sim_group)
    del pd.helper_store[1]
    messages, result = authenticate(pd, dds, sp, rng)
    assert result.payload == {"granted": True, "reason": "ok"}
    assert all(m.receiver != "dd1" and m.sender != "dd1"
               for m in messages
               if m.type is not MessageType.SENSOR_READING)


def test_cloud_score_mode_without_a_scoring_service_is_refused(sim_group):
    # Refused before any device is contacted: no message crosses a link.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                       score_mode="cloud-plain")
    crossed = []
    with pytest.raises(ParameterError, match="scoring service"):
        authenticate(pd, dds, sp, rng,
                     transit_hook=lambda msg: crossed.append(msg) or msg)
    assert crossed == []


def garble_ciphertexts(payload):
    payload["ciphertexts"] = {k: "zz" for k in payload["ciphertexts"]}
    return payload


def truncate_helper(payload):
    payload["helper"] = dict(payload["helper"], bits="ab12")
    return payload


def overflow_scores(payload):
    payload["scores"] = {k: 10 ** 400 for k in payload["scores"]}
    return payload


def infinite_helper_m(payload):
    payload["helper"] = dict(payload["helper"], m=float("inf"))
    return payload


def helper_m_as_a_str(payload):
    payload["helper"] = dict(payload["helper"], m=str(payload["helper"]["m"]))
    return payload


def prefix_first_commitment(payload):
    first, *rest = payload["commitments"]
    payload["commitments"] = ["0x" + first, *rest]
    return payload


def lift_first_commitment(payload):
    """C_0 + p in place of C_0: the same residue mod p, encoded twice."""
    first, *rest = payload["commitments"]
    payload["commitments"] = [format(int(first, 16) + SIM.p, "x"), *rest]
    return payload


@functools.lru_cache(maxsize=None)
def make_user_n_sq():
    """n^2 of the Paillier key make_user gives a CASE2 t=1 n=3 user."""
    pd = make_user(Case.CASE2, 1, 3, SIM, score_mode="cloud-encrypted")[0]
    return pd.paillier.public.n_sq


def first_entry(key, recode):
    """Replace the honest value v of the first entry of the request's
    `key` map (its scores or ciphertexts) by recode(v)."""
    def mutate(payload):
        entries = dict(payload[key])
        first = next(iter(entries))
        entries[first] = recode(entries[first])
        payload[key] = entries
        return payload
    return mutate


# (case, score mode, message type, sent by the PD, mutation, signers).
# Each mutation hits the first message of its type; for a sensor reading
# or a helper delivery, that is dd1's. A "lax" row re-encodes an honest
# value in a form int(), float() or int(x, 16) would take.
TRANSIT_MUTATIONS = {
    # The service answers with no value; the PD gates on local fusion.
    "score-request-not-hex": (Case.CASE2, "cloud-encrypted",
                              MessageType.SCORE_REQUEST, True,
                              garble_ciphertexts, ["dd1", "dd2"]),
    "score-request-unknown-mode": (Case.CASE2, "cloud-encrypted",
                                   MessageType.SCORE_REQUEST, True,
                                   set_field("mode", "psychic"),
                                   ["dd1", "dd2"]),
    "score-request-unknown-user": (Case.CASE2, "cloud-encrypted",
                                   MessageType.SCORE_REQUEST, True,
                                   set_field("user_id", "ghost"),
                                   ["dd1", "dd2"]),
    "score-request-user-not-a-str": (Case.CASE2, "cloud-encrypted",
                                     MessageType.SCORE_REQUEST, True,
                                     set_field("user_id", ["user1"]),
                                     ["dd1", "dd2"]),
    "score-request-ciphertext-negative": (
        Case.CASE2, "cloud-encrypted", MessageType.SCORE_REQUEST, True,
        first_entry("ciphertexts", lambda c: "-1"), ["dd1", "dd2"]),
    "score-request-ciphertext-n-squared": (
        Case.CASE2, "cloud-encrypted", MessageType.SCORE_REQUEST, True,
        first_entry("ciphertexts", lambda c: format(make_user_n_sq(), "x")),
        ["dd1", "dd2"]),
    "score-request-ciphertext-lax-0x": (
        Case.CASE2, "cloud-encrypted", MessageType.SCORE_REQUEST, True,
        first_entry("ciphertexts", lambda c: "0x" + c), ["dd1", "dd2"]),
    "score-request-score-overflows": (Case.CASE2, "cloud-plain",
                                      MessageType.SCORE_REQUEST, True,
                                      overflow_scores, ["dd1", "dd2"]),
    "score-request-score-lax-float": (Case.CASE2, "cloud-plain",
                                      MessageType.SCORE_REQUEST, True,
                                      first_entry("scores", float),
                                      ["dd1", "dd2"]),
    "score-request-score-lax-str": (Case.CASE2, "cloud-plain",
                                    MessageType.SCORE_REQUEST, True,
                                    first_entry("scores", str),
                                    ["dd1", "dd2"]),
    # The PD drops dd1's reading and gates on the other two.
    "sensor-score-out-of-range": (Case.CASE3, "local-bypass",
                                  MessageType.SENSOR_READING, False,
                                  set_field("score", 7.0), ["dd1", "dd2"]),
    "sensor-score-lax-str": (Case.CASE3, "local-bypass",
                             MessageType.SENSOR_READING, False,
                             recode_field("score", str), ["dd1", "dd2"]),
    "sensor-score-true": (Case.CASE3, "local-bypass",
                          MessageType.SENSOR_READING, False,
                          set_field("score", True), ["dd1", "dd2"]),
    "sensor-timestamp-lax-float": (Case.CASE3, "local-bypass",
                                   MessageType.SENSOR_READING, False,
                                   recode_field("timestamp", float),
                                   ["dd1", "dd2"]),
    # dd1 sits the session out; dd2 and dd3 make the quorum.
    "helper-truncated": (Case.CASE3, "local-bypass",
                         MessageType.HELPER_DELIVERY, True,
                         truncate_helper, ["dd2", "dd3"]),
    "helper-m-infinite": (Case.CASE3, "local-bypass",
                          MessageType.HELPER_DELIVERY, True,
                          infinite_helper_m, ["dd2", "dd3"]),
    "helper-m-lax-str": (Case.CASE3, "local-bypass",
                         MessageType.HELPER_DELIVERY, True,
                         helper_m_as_a_str, ["dd2", "dd3"]),
    "helper-commitment-lax-0x": (Case.CASE3, "local-bypass",
                                 MessageType.HELPER_DELIVERY, True,
                                 prefix_first_commitment, ["dd2", "dd3"]),
    "helper-commitment-plus-p": (Case.CASE3, "local-bypass",
                                 MessageType.HELPER_DELIVERY, True,
                                 lift_first_commitment, ["dd2", "dd3"]),
}


@pytest.mark.parametrize("mutation", sorted(TRANSIT_MUTATIONS))
def test_mangled_message_ends_in_a_decision(sim_group, mutation):
    case, score_mode, msg_type, by_pd, mutate, signers = \
        TRANSIT_MUTATIONS[mutation]
    pd, dds, sp, fasp, rng, _ = make_user(case, 1, 3, sim_group,
                                          score_mode=score_mode)
    result, score, _, _ = spied_authentication(
        pd, dds, sp, fasp, rng, replace_first(msg_type, mutate, by_pd=by_pd))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert [m.receiver for m in pd.transcript
            if m.type is MessageType.SIGN_ROUND1 and m.sender == "pd"] \
        == signers
    if msg_type is MessageType.SENSOR_READING:
        assert "dd1" not in score.contributing
    if msg_type is MessageType.SCORE_REQUEST:
        assert score.mode == "local"


@pytest.mark.parametrize("score_mode, mode", [("cloud-plain", "plain"),
                                             ("cloud-encrypted", "encrypted")])
def test_request_for_a_mangled_user_is_answered_without_a_value(
        sim_group, score_mode, mode):
    # The service answers the mangled request with no value; the PD
    # records that reply and gates on its own fusion of the readings.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode=score_mode)
    result, score, _, _ = spied_authentication(
        pd, dds, sp, fasp, rng, replace_first(
            MessageType.SCORE_REQUEST, set_field("user_id", "ghost"),
            by_pd=True))
    assert result.payload == {"granted": True, "reason": "ok"}
    assert score.mode == "local"
    [reply] = [m for m in pd.transcript
               if m.type is MessageType.SCORE_RESPONSE]
    assert reply.payload == {"user_id": "ghost", "mode": mode}
    assert fasp.transcript[-1] is reply


@pytest.mark.parametrize("others", [0.9, 0.1])
@pytest.mark.parametrize("score", [float("nan"), 1.5, -0.1, "x", None],
                         ids=["nan", "1.5", "-0.1", "x", "None"])
def test_device_reporting_a_bad_score_is_dropped(sim_group, score, others):
    # dd1's sensor reports a score the gateway cannot use. dd1 sends it
    # as it is; the gateway drops it and decides on dd2 and dd3 alone.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    dds[0].current_scores = {G: score}
    for dd in dds[1:]:
        dd.current_scores = {dd.modalities[0]: others}
    messages, result = authenticate(pd, dds, sp, rng)
    sent = [m.payload["score"] for m in messages
            if m.type is MessageType.SENSOR_READING and m.sender == "dd1"]
    assert len(sent) == 1 and sent[0] is score
    if others >= pd.policy.theta:
        assert result.payload == {"granted": True, "reason": "ok"}
    else:
        assert result.payload == {"granted": False, "reason": "score"}


@pytest.mark.parametrize("nonce", [["00"], {"nonce": "00"}, None, 7])
def test_response_with_a_mangled_nonce_is_unknown(sim_group, nonce):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    _, result = authenticate(pd, dds, sp, rng, transit_hook=replace_first(
        MessageType.AUTH_RESPONSE, set_field("nonce", nonce), by_pd=True))
    assert result.payload == {"granted": False, "reason": "nonce-unknown"}


HOSTILE_VALUES = st.one_of(
    st.sampled_from([None, True, False, 10 ** 400, -(10 ** 400), -1,
                     float("nan"), float("inf"), float("-inf"), "", "zz",
                     "0x1f", "-1", " 1", "1_f", "+1f", "\u0661", [], ["1"],
                     {}, {"1": "1"}]),
    st.integers(), st.text(max_size=3))


@functools.lru_cache(maxsize=None)
def transit_types(case, score_mode):
    """The types of the messages that pass the transit hook, in order, in
    an untouched flow."""
    pd, dds, sp, fasp, rng, _ = make_user(case, 1, 3, SIM,
                                          score_mode=score_mode)
    seen = []
    authenticate(pd, dds, sp, rng, fasp=fasp,
                 transit_hook=lambda m: seen.append(m.type) or m)
    return tuple(seen)


@pytest.mark.parametrize("case", [Case.CASE2, Case.CASE3])
@pytest.mark.parametrize("score_mode", ["local-bypass", "cloud-plain",
                                        "cloud-encrypted"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_field_in_transit_ends_in_a_decision(case, score_mode,
                                                     data):
    # The payload of one message, or one of its fields at the top level
    # or one level down, becomes a hostile value. The flow ends in a
    # denial with a reason, or in a grant whose signature verifies under
    # the key the SP registered.
    pd, dds, sp, fasp, rng, record = make_user(case, 1, 3, SIM,
                                               score_mode=score_mode)
    # Each message type is as likely as any other, however many of its
    # messages a flow sends.
    types = transit_types(case, score_mode)
    kind = data.draw(st.sampled_from(sorted(set(types), key=types.index)),
                     label="message type")
    target = data.draw(st.sampled_from(
        [i for i, t in enumerate(types) if t is kind]), label="message")
    seen = []

    def hook(msg):
        seen.append(msg)
        if len(seen) - 1 != target:
            return msg
        paths = [()] + [(key,) for key in msg.payload]
        for key, inner in msg.payload.items():
            if isinstance(inner, dict):
                paths += [(key, sub) for sub in inner]
            elif isinstance(inner, list):
                paths += [(key, i) for i in range(len(inner))]
        path = data.draw(st.sampled_from(paths),
                         label=f"{msg.type.value} field")
        value = data.draw(HOSTILE_VALUES, label="value")
        payload = dict(msg.payload)
        if not path:    # the whole payload
            payload = value
        elif len(path) == 1:
            payload[path[0]] = value
        else:
            payload[path[0]] = payload[path[0]].copy()
            payload[path[0]][path[1]] = value
        return Message(type=msg.type, sender=msg.sender,
                       receiver=msg.receiver, session_id=msg.session_id,
                       payload=payload)

    messages, result = authenticate(pd, dds, sp, rng, fasp=fasp,
                                    transit_hook=hook)
    assert result.type is MessageType.AUTH_RESULT
    assert fasp is None or isinstance(
        fasp.state_snapshot()["plaintext_scores"], list)
    if not result.payload["granted"]:
        assert isinstance(result.payload["reason"], str)
        assert result.payload["reason"] not in ("", "ok")
        return
    response = messages[-2]
    signed = signing_message_bytes(
        sp.sp_id, bytes.fromhex(response.payload["nonce"]))
    assert verify_signature(record.pubkey, signed, Signature.from_json(
        response.payload["signature"]))


_MESSAGE_TYPES = list(MessageType)

# Each header a forger rewrites in transit, and the forgeries it tries on
# a message: a plausible value and one of the wrong kind.
HEADER_FORGERIES = {
    "type": (lambda m: _MESSAGE_TYPES[
        (_MESSAGE_TYPES.index(m.type) + 1) % len(_MESSAGE_TYPES)],
        lambda m: None),
    "session_id": (lambda m: "sp1-s999999", lambda m: None),
    "sender": (lambda m: m.receiver, lambda m: None),
    "receiver": (lambda m: m.sender, lambda m: None),
}


@pytest.mark.parametrize("case", [Case.CASE2, Case.CASE3])
@pytest.mark.parametrize("score_mode", ["local-bypass", "cloud-plain",
                                        "cloud-encrypted"])
@pytest.mark.parametrize("header", sorted(HEADER_FORGERIES))
def test_forged_header_in_transit_ends_in_a_decision(case, score_mode,
                                                     header):
    # Each message of a flow in turn has `header` forged in transit. The
    # flow ends in a denial with a reason, or in a grant whose signature
    # verifies under the key the SP registered. `conclude` decides whether
    # the SP judges the flow's last message, whatever its headers now say.
    for target in range(len(transit_types(case, score_mode))):
        for forge in HEADER_FORGERIES[header]:
            pd, dds, sp, fasp, rng, record = make_user(
                case, 1, 3, SIM, score_mode=score_mode)
            crossed = []

            def hook(msg):
                if len(crossed) == target:
                    msg = dataclasses.replace(msg, **{header: forge(msg)})
                crossed.append(msg)
                return msg

            _, challenge = request_challenge(pd.user_id, sp, now=0)
            flow = pd_run_authentication(pd, dds, challenge, 0, rng,
                                         fasp=fasp, transit_hook=hook)
            last = flow[-1]
            result = conclude(pd, sp, flow, now=0)[-1]
            assert result.type is MessageType.AUTH_RESULT
            assert (result is last) is (last is not crossed[-1])
            if not result.payload["granted"]:
                assert result.payload["reason"] not in ("", "ok")
                continue
            signed = signing_message_bytes(
                sp.sp_id, bytes.fromhex(last.payload["nonce"]))
            assert verify_signature(record.pubkey, signed,
                                    Signature.from_json(
                                        last.payload["signature"]))


def test_grant_shaped_response_in_transit_is_judged_by_the_sp(sim_group):
    # A forger rewrites the AuthResponse into what looks like the SP's
    # grant. Only the SP grants: it judges what reached it, finds no
    # nonce it issued, and its verdict ends the session.
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)

    def hook(msg):
        if msg.type is not MessageType.AUTH_RESPONSE:
            return msg
        return dataclasses.replace(msg, type=MessageType.AUTH_RESULT,
                                   sender=sp.sp_id, receiver="user",
                                   payload={"granted": True, "reason": "ok"})

    messages, result = authenticate(pd, dds, sp, rng, transit_hook=hook)
    assert result.payload == {"granted": False, "reason": "nonce-unknown"}
    assert sp.transcript[-2] is messages[-2]
    assert sp.transcript[-1] is result


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("score_mode", protocol.SCORE_MODES)
@pytest.mark.parametrize("forge", [False, True],
                         ids=["honest", "nonce-forged"])
def test_authenticate_is_the_hand_chained_session(case, score_mode, forge):
    # On twin seeded worlds, one session through protocol.authenticate and
    # one chained by hand put the same lines on the wire, also when a
    # transit hook rewrites the AuthResponse's nonce.
    def hook():
        return replace_first(MessageType.AUTH_RESPONSE,
                             set_field("nonce", "00" * 32),
                             by_pd=True) if forge else None

    pd, dds, sp, fasp, rng, _ = make_user(case, 1, 3, SIM,
                                          score_mode=score_mode)
    req, challenge = request_challenge(pd.user_id, sp, now=0)
    flow = pd_run_authentication(pd, dds, challenge, 0, rng, fasp=fasp,
                                 transit_hook=hook())
    by_hand = [req, challenge, *conclude(pd, sp, flow, now=0)]
    pd, dds, sp, fasp, rng, _ = make_user(case, 1, 3, SIM,
                                          score_mode=score_mode)
    session = protocol.authenticate(pd, dds, sp, 0, rng, fasp, hook())
    assert list(map(message_to_wire, session)) == \
        list(map(message_to_wire, by_hand))
    assert session[-1].payload == (
        {"granted": False, "reason": "nonce-unknown"} if forge
        else {"granted": True, "reason": "ok"})


def test_service_provider_forgets_nonces_past_the_ttl(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    messages, result = authenticate(pd, dds, sp, rng, now=0)
    assert result.payload["granted"] is True
    response = messages[-2]
    # 199 more challenges over 1,000 ticks with the default TTL of 100:
    # only those issued at 895..995 are still held.
    for now in range(5, 1000, 5):
        request_challenge("user1", sp, now)
    assert len(sp._nonces) == 21
    assert sp.verify(response, now=995).payload == {
        "granted": False, "reason": "nonce-unknown"}


def test_service_provider_keeps_at_most_max_outstanding_nonces_per_user(
        sim_group):
    # A second registered user, under the same key, is flooded with 10 x
    # the cap of challenges at one `now`. Only the cap's newest stay, so
    # its first, already answered, reads nonce-unknown; user1's challenge,
    # issued before the flood, still grants.
    pd, dds, sp, _, rng, record = make_user(Case.CASE2, 1, 3, sim_group)
    sp.register_user(dataclasses.replace(record, user_id="flooded"))
    _, fresh = request_challenge("user1", sp, now=0)
    _, first = request_challenge("flooded", sp, now=0)
    response = pd_run_authentication(pd, dds, first, 0, rng)[-1]
    for _ in range(10 * protocol.MAX_OUTSTANDING - 1):
        request_challenge("flooded", sp, now=0)
    assert sum(entry["user_id"] == "flooded"
               for entry in sp._nonces.values()) == protocol.MAX_OUTSTANDING
    assert len(sp._nonces) == protocol.MAX_OUTSTANDING + 1
    assert sp.verify(response, now=0).payload == {
        "granted": False, "reason": "nonce-unknown"}
    flow = pd_run_authentication(pd, dds, fresh, 0, rng)
    assert conclude(pd, sp, flow, now=0)[-1].payload == {
        "granted": True, "reason": "ok"}


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("score_mode", protocol.SCORE_MODES)
def test_every_recorded_message_names_its_party(case, score_mode):
    # Each message in the gateway's, a device's or the scoring service's
    # transcript names that party's entity_id as its sender or receiver.
    pd, dds, sp, fasp, rng, _ = make_user(case, 1, 3, SIM,
                                          score_mode=score_mode)
    session = protocol.authenticate(pd, dds, sp, 0, rng, fasp)
    assert session[-1].payload == {"granted": True, "reason": "ok"}
    parties = [pd, *dds, *([fasp] if fasp else [])]
    for party in parties:
        assert party.transcript
        assert all(party.entity_id in (msg.sender, msg.receiver)
                   for msg in party.transcript)


def test_local_bypass_sends_no_fasp_traffic(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    messages, _ = authenticate(pd, dds, sp, rng)
    assert all(m.type not in (MessageType.SCORE_REQUEST,
                              MessageType.SCORE_RESPONSE)
               for m in messages)


def test_fasp_rejects_unknown_user():
    fasp = FaspService()
    msg = Message(type=MessageType.SCORE_REQUEST, sender="pd",
                  receiver="fasp", session_id="s",
                  payload={"user_id": "ghost", "mode": "plain",
                           "scores": {}})
    reply = fasp.handle_score_request(msg)
    assert reply.type is MessageType.SCORE_RESPONSE
    assert reply.payload == {"user_id": "ghost", "mode": "plain"}
    assert list(fasp.transcript) == [msg, reply]


@pytest.mark.parametrize("scores", [{}, {"custom": 90}],
                         ids=["none", "unweighted"])
def test_plain_request_with_no_weighted_score_gets_no_value(scores):
    # No score weighs more than 0, so the service does not fuse.
    fasp = FaspService()
    fasp.register_policy("user1", make_policy())
    msg = Message(type=MessageType.SCORE_REQUEST, sender="pd",
                  receiver="fasp", session_id="s",
                  payload={"user_id": "user1", "mode": "plain",
                           "scores": scores})
    reply = fasp.handle_score_request(msg)
    assert reply.payload == {"user_id": "user1", "mode": "plain"}


def test_encrypted_request_for_a_user_without_a_key_gets_no_value():
    fasp = FaspService()
    fasp.register_policy("user1", make_policy())
    msg = Message(type=MessageType.SCORE_REQUEST, sender="pd",
                  receiver="fasp", session_id="s",
                  payload={"user_id": "user1", "mode": "encrypted",
                           "ciphertexts": {"gait": "1f"}})
    reply = fasp.handle_score_request(msg)
    assert reply.payload == {"user_id": "user1", "mode": "encrypted"}


# Each field of a score request and its honest values. The service knows
# one user with a Paillier key ("keyed") and one without ("keyless").
HONEST_REQUEST_FIELDS = {
    "user_id": ["keyed", "keyless"],
    "mode": ["plain", "encrypted"],
    "scores": [{"gait": 90, "location": 80}],
    "ciphertexts": [{"gait": "1f", "heartbeat": "2"}],
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_score_request_gets_a_score_response(data):
    # The payload is a hostile value, or a dict whose user_id, mode,
    # scores and ciphertexts are each absent, honest, hostile or (the
    # last two) honest but for one hostile entry. The service answers
    # each with a ScoreResponse the wire encodes, which echoes the
    # request's user_id and mode; a request it cannot fuse gets neither
    # value nor ciphertext.
    keypair = phe_keygen(16, random.Random(16))
    fasp = FaspService()
    fasp.register_policy("keyed", make_policy(), paillier_pub=keypair.public)
    fasp.register_policy("keyless", make_policy())
    if data.draw(st.booleans(), label="payload is a dict"):
        payload = {}
        for key, honest in HONEST_REQUEST_FIELDS.items():
            kind = data.draw(st.sampled_from(
                ["absent", "honest", "hostile"]
                + ["hostile entry"] * isinstance(honest[0], dict)),
                label=f"{key} kind")
            if kind == "honest":
                payload[key] = data.draw(st.sampled_from(honest), label=key)
            elif kind == "hostile":
                payload[key] = data.draw(HOSTILE_VALUES, label=key)
            elif kind == "hostile entry":
                entry = data.draw(st.sampled_from(["gait", "custom", "x"]),
                                  label=f"{key} entry")
                payload[key] = dict(honest[0], **{
                    entry: data.draw(HOSTILE_VALUES, label=f"{key} value")})
    else:
        payload = data.draw(HOSTILE_VALUES, label="payload")
    msg = Message(type=MessageType.SCORE_REQUEST, sender="pd",
                  receiver="fasp", session_id="s", payload=payload)
    reply = fasp.handle_score_request(msg)
    message_to_wire(reply)
    assert (reply.type, reply.sender, reply.receiver, reply.session_id) \
        == (MessageType.SCORE_RESPONSE, "fasp", "pd", "s")
    fields = payload if isinstance(payload, dict) else {}
    user_id, mode = fields.get("user_id"), fields.get("mode")
    assert reply.payload.pop("user_id") is user_id
    assert reply.payload.pop("mode") is mode
    fused = {"plain": "scores", "encrypted": "ciphertexts"}
    refused = (user_id not in HONEST_REQUEST_FIELDS["user_id"]
               or mode not in ("plain", "encrypted")
               or (mode == "encrypted" and user_id == "keyless")
               or not isinstance(fields.get(fused[mode]), dict))
    if refused:
        assert reply.payload == {}
    elif fields[fused[mode]] in HONEST_REQUEST_FIELDS[fused[mode]]:
        assert set(reply.payload) == {"value" if mode == "plain"
                                      else "ciphertext"}
    else:
        assert set(reply.payload) <= {"value", "ciphertext"}


def test_identical_seeds_give_identical_transcripts(sim_group):
    wires = []
    for _ in range(2):
        pd, dds, sp, _, rng, _ = make_user(Case.CASE3, 1, 3, sim_group,
                                           seed=77)
        messages, _ = authenticate(pd, dds, sp, rng)
        wires.append("\n".join(message_to_wire(m) for m in messages))
    assert wires[0] == wires[1]


def test_entities_keep_append_only_transcripts(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    authenticate(pd, dds, sp, rng)
    assert any(m.type is MessageType.CHALLENGE for m in pd.transcript)
    assert any(m.type is MessageType.AUTH_RESPONSE for m in sp.transcript)
    for dd in dds[:2]:
        assert any(m.type is MessageType.SENSOR_READING
                   for m in dd.transcript)


def test_entity_transcripts_keep_the_last_window(sim_group):
    pd, dds, sp, _, rng, _ = make_user(Case.CASE2, 1, 3, sim_group)
    # 13 messages reach the PD and 4 the SP per session.
    for now in range(20):
        messages, result = authenticate(pd, dds, sp, rng, now=now)
    assert result.payload["granted"] is True
    assert len(pd.transcript) == len(sp.transcript) == _TRANSCRIPT_WINDOW
    assert pd.transcript[-1] is messages[-2]    # the PD's AuthResponse
    assert sp.transcript[-1] is result


def test_plain_scoring_service_keeps_the_last_window(sim_group):
    # The service keeps the last _TRANSCRIPT_WINDOW messages, 32 requests
    # and their 32 replies; its inspection reports every plaintext score
    # they show: three scores and a fused value per session.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-plain")
    for now in range(300):
        for dd in dds:
            dd.current_scores = {dd.modalities[0]: 0.9 + now % 10 / 100}
        _, result = authenticate(pd, dds, sp, rng, fasp=fasp, now=now)
    assert result.payload["granted"] is True
    seen = fasp.state_snapshot()["plaintext_scores"]
    assert seen == [entry for msg in fasp.transcript
                    for entry in plaintext_scores(msg)]
    assert len(seen) == 32 * 3 + 32
    assert [name for name, _ in seen].count("fused") == 32
    fused = fasp.transcript[-1].payload["value"]
    assert fused == pytest.approx(0.99)
    assert seen[-4:] == [("gait", 99), ("location", 99), ("heartbeat", 99),
                         ("fused", fused)]


def test_devices_talk_only_to_the_gateway(sim_group):
    # DDs have no direct link to the SP or the scoring service; every
    # message touching a dd has the PD on the other end.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE3, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    messages, _ = authenticate(pd, dds, sp, rng, fasp=fasp)
    for msg in messages:
        for end, other in ((msg.sender, msg.receiver),
                           (msg.receiver, msg.sender)):
            if end.startswith("dd"):
                assert other == "pd", msg


def test_no_single_persistent_state_holds_the_key(sim_group):
    # CASE2/3: with t >= 1 the dealer key never survives enrolment in
    # any one entity's persistent state; recombining needs t+1 devices.
    for case in (Case.CASE2, Case.CASE3):
        pd, dds, sp, _, rng, _ = make_user(case, 1, 3, sim_group)
        states = [pd.persistent_state()] + [dd.persistent_state()
                                            for dd in dds]
        assert all("secret_key" not in s for s in states)
        if case is Case.CASE3:
            assert all("key_share_value" not in s for s in states)


def test_cloud_encrypted_enrolment_needs_a_paillier_keypair(sim_group):
    pd = PersonalDevice(user_id="user1", policy=make_policy(),
                        score_mode="cloud-encrypted")
    dds = [DumbDevice(index=i, modalities=[MODS[i - 1]]) for i in (1, 2, 3)]
    with pytest.raises(ParameterError):
        enroll(user_id="user1", strategy=CaseStrategy(case=Case.CASE2),
               params=ThresholdParams(t=1, n=3), group=sim_group, pd=pd,
               dds=dds, rng=random.Random(1))


def test_cloud_encrypted_enrolment_refuses_a_modulus_the_score_wraps():
    # The test policy's fused plaintext reaches 100 * 10^6: more than
    # this 16-bit n, less than this 64-bit one.
    small, large = (phe_keygen(bits, random.Random(bits)) for bits in (16, 64))
    assert small.public.n <= max_fused_plaintext(make_policy()) \
        < large.public.n
    pd, dds = gateway_and_devices_1_to_3("cloud-encrypted")
    with pytest.raises(ParameterError, match="fused score"):
        enrol_devices(pd, dds, Case.CASE2, False, seed=1,
                      paillier_keypair=small)
    assert pd.pubkey is None and pd.paillier is None
    assert all("key_share_value" not in dd.persistent_state()
               for dd in dds)
    enrol_devices(pd, dds, Case.CASE2, False, seed=1, paillier_keypair=large)
    assert pd.paillier is large


@pytest.mark.parametrize("ciphertext", ["-1", "n^2", "n^2+1"])
def test_out_of_range_ciphertext_gets_no_value(sim_group, ciphertext):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    n_sq = pd.paillier.public.n_sq
    value = {"-1": "-1", "n^2": format(n_sq, "x"),
             "n^2+1": format(n_sq + 1, "x")}[ciphertext]
    request = Message(type=MessageType.SCORE_REQUEST, sender="pd",
                      receiver="fasp", session_id="s",
                      payload={"user_id": "user1", "mode": "encrypted",
                               "ciphertexts": {"gait": "1f",
                                               "location": value}})
    reply = fasp.handle_score_request(request)
    assert reply.payload == {"user_id": "user1", "mode": "encrypted"}


def use_paillier(pd, fasp, keypair):
    """Give an enrolled cloud-encrypted user another Paillier key."""
    pd.paillier = keypair
    fasp.register_policy(pd.user_id, pd.policy, paillier_pub=keypair.public)


def spied_authentication(pd, dds, sp, fasp, rng, transit_hook=None):
    """authenticate(), returning also the AuthScore the gateway gated on,
    the ciphertexts it decrypted and the plaintext sums it normalized."""
    scores, decrypted, plaintexts = [], [], []

    def compute_auth_score(*args):
        scores.append(real["_compute_auth_score"](*args))
        return scores[-1]

    def decrypt(c, keypair):
        decrypted.append(c)
        return real["phe_decrypt"](c, keypair)

    def normalize(plaintext, weights):
        plaintexts.append(plaintext)
        return real["normalize_fused"](plaintext, weights)

    spies = {"_compute_auth_score": compute_auth_score,
             "phe_decrypt": decrypt, "normalize_fused": normalize}
    real = {name: getattr(protocol, name) for name in spies}
    with pytest.MonkeyPatch.context() as mp:
        for name, spy in spies.items():
            mp.setattr(protocol, name, spy)
        _, result = authenticate(pd, dds, sp, rng, fasp=fasp,
                                 transit_hook=transit_hook)
    [score] = scores
    return result, score, decrypted, plaintexts


def rerandomise(public, rho):
    """Multiply the ScoreResponse by Enc(0; rho) = rho^n mod n^2: the
    same plaintext under another ciphertext."""
    def hook(msg):
        if msg.type is not MessageType.SCORE_RESPONSE:
            return msg
        c = int(msg.payload["ciphertext"], 16)
        c = c * pow(rho, public.n, public.n_sq) % public.n_sq
        return Message(type=msg.type, sender=msg.sender,
                       receiver=msg.receiver, session_id=msg.session_id,
                       payload=dict(msg.payload, ciphertext=format(c, "x")))
    return hook


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bits=st.sampled_from([16, 64]),
       reads=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       rho=st.integers(2, 2 ** 40))
@example(bits=16, reads=[0.9, 0.9, 0.9], rho=65537)
def test_honest_encrypted_reply_is_rebuilt_not_decrypted(bits, reads, rho):
    # The same CASE2 flow twice: once honest, once with the reply
    # re-randomised, which the gateway cannot rebuild and so decrypts.
    # Both recover sum(w * q) mod n and gate on the same AuthScore; only
    # the re-randomised one decrypts. With a 16-bit key the weighted sum
    # (up to 10^8) wraps mod n.
    keypair = phe_keygen(bits, random.Random(bits))
    assume(math.gcd(rho, keypair.public.n) == 1)
    runs = []
    for hook in (None, rerandomise(keypair.public, rho)):
        pd, dds, sp, fasp, rng, _ = make_user(
            Case.CASE2, 1, 3, SIM, score_mode="cloud-encrypted")
        use_paillier(pd, fasp, keypair)
        for dd, read in zip(dds, reads):
            dd.current_scores = {dd.modalities[0]: read}
        runs.append(spied_authentication(pd, dds, sp, fasp, rng, hook))
    (result, score, decrypted, plaintexts), rerandomised = runs
    weights = pd.policy.integer_weights(MODS)
    expected = sum(weights[m] * quantize_score(read)
                   for m, read in zip(MODS, reads)) % keypair.public.n
    assert decrypted == [] and len(rerandomised[2]) == 1
    assert plaintexts == rerandomised[3] == [expected]
    assert score == rerandomised[1]
    assert result.payload == rerandomised[0].payload


def test_rerandomised_honest_reply_is_decrypted_and_believed(sim_group):
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    result, score, decrypted, _ = spied_authentication(
        pd, dds, sp, fasp, rng, rerandomise(pd.paillier.public, 65537))
    assert len(decrypted) == 1
    assert score.mode == "cloud" and abs(score.value - 0.9) < 1e-12
    assert result.payload == {"granted": True, "reason": "ok"}


def test_reply_with_zero_integer_weights_falls_back_to_local_fusion(
        sim_group):
    # Weights this small round to 0 on the cloud path: the service sends
    # no value, and a ciphertext put into its reply is disregarded.
    pd, dds, sp, fasp, rng, _ = make_user(Case.CASE2, 1, 3, sim_group,
                                          score_mode="cloud-encrypted")
    tiny = FusionPolicy(weights={m: 1e-7 for m in MODS})
    pd.policy = tiny
    fasp.register_policy(pd.user_id, tiny, paillier_pub=pd.paillier.public)
    for forged in (None, "1"):
        hook = forged and replace_first(MessageType.SCORE_RESPONSE,
                                        set_field("ciphertext", forged))
        _, result = authenticate(pd, dds, sp, rng, fasp=fasp,
                                 transit_hook=hook)
        assert result.payload == {"granted": True, "reason": "ok"}
