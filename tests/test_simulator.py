import copy
import dataclasses
import hashlib
import json
import random

import pytest

from faskit import protocol, simulator
from faskit.errors import ConfigError, NondeterminismError
from faskit.fuzzyextractor import CodeParams
from faskit.protocol import message_from_wire
from faskit.simulator import (SIZE_CAPS, ScenarioConfig, _Trial,
                              estimate_rates, replay_transcript, run_scenario,
                              share_recovery_failure_rate)


def small(**kwargs):
    base = {"case": 3, "t": 1, "n": 3, "p_flip": 0.01, "seed": 5,
            "trials": 25, "group": "sim"}
    base.update(kwargs)
    return ScenarioConfig(**base)


def test_config_validation_names_the_field():
    bad = [
        ({"case": 7}, "case"),
        ({"t": 5, "n": 3}, "t"),
        ({"p_flip": 0.9}, "p_flip"),
        ({"adversary": "alien"}, "adversary"),
        ({"adversary": "stolen_k", "adversary_k": 9}, "adversary_k"),
        ({"score_mode": "psychic"}, "score_mode"),
        ({"adversary": "score_inflate"}, "adversary"),
        ({"case": 1, "adversary": "tamper_partial"}, "adversary"),
        ({"weights": {}}, "weights"),
        ({"weights": {"sonar": 1.0}}, "weights.sonar"),
        ({"theta": 1.5}, "theta"),
        ({"group": "nope"}, "group"),
        ({"code_r": 4}, "code_r"),
        ({"seed": 2 ** 64}, "seed"),
        ({"trials": -1}, "trials"),
        ({"present_devices": [9]}, "present_devices"),
        ({"paillier_bits": 8}, "paillier_bits"),
    ]
    for overrides, path in bad:
        with pytest.raises(ConfigError) as err:
            small(**overrides)
        assert str(err.value).startswith(path + ":"), (overrides, err.value)


MISTYPED = [
    ({"t": "2"}, "t"),
    ({"n": 5.0}, "n"),
    ({"trials": 1.5}, "trials"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.0}, "seed"),
    ({"present_devices": 5}, "present_devices"),
    ({"weights": [1]}, "weights"),
    ({"weights": {"gait": "x"}}, "weights.gait"),
    ({"theta": None}, "theta"),
    ({"p_flip": "0.1"}, "p_flip"),
    ({"code_r": "3"}, "code_r"),
    ({"adversary_k": "1"}, "adversary_k"),
    ({"case": True}, "case"),
    ({"impostor": "no"}, "impostor"),
    ({"weights": {"gait": float("inf")}}, "weights"),
    # An exact int in JSON, but too large for a float: FusionPolicy
    # refuses it before the theta rule's policy() could overflow on it.
    ({"weights": {"gait": 10 ** 400}}, "weights"),
    ({"theta": True}, "theta"),
    ({"present_devices": [True]}, "present_devices"),
    ({"present_devices": [2.0]}, "present_devices"),
    ({"staleness_max": -1}, "staleness_max"),
    ({"staleness_max": "3"}, "staleness_max"),
    ({"staleness_max": True}, "staleness_max"),
    ({"staleness_max": 2.0}, "staleness_max"),
]


@pytest.mark.parametrize("overrides,path", MISTYPED,
                         ids=[json.dumps(o) for o, _ in MISTYPED])
def test_mistyped_config_field_is_a_config_error(overrides, path, tmp_path,
                                                 capsys):
    from faskit.cli import main

    with pytest.raises(ConfigError) as err:
        small(**overrides)
    assert str(err.value).startswith(path + ":"), err.value
    obj = {**small().to_json(), **overrides}
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_json(obj)
    assert str(err.value).startswith(path + ":"), err.value

    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(obj))
    assert main(["simulate", "--config", str(config)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "config"
    assert report["error"].startswith(path + ":")


def test_fields_that_size_the_work_are_capped():
    # kat's order q is 11, so device index 11 would be the secret's point.
    with pytest.raises(ConfigError, match="^n: must be below the group "):
        small(group="kat", t=1, n=11)
    small(group="kat", t=1, n=10)
    assert SIZE_CAPS == {"n": 100, "code_r": 101, "paillier_bits": 4096}
    for name, cap in SIZE_CAPS.items():
        small(**{name: cap})
        with pytest.raises(ConfigError, match=f"^{name}: must be <= {cap}$"):
            small(**{name: cap + 1})


def test_trial_substreams_are_of_the_masters_kind():
    trial = _Trial(small(case=2, trials=1), random.SystemRandom())
    assert type(trial.rng_keys) is random.SystemRandom
    assert type(trial.rng_nonce) is random.SystemRandom
    seeded = _Trial(small(case=2, trials=1), random.Random(5))
    assert type(seeded.rng_keys) is random.Random


def test_config_is_checked_when_built_and_cannot_change():
    with pytest.raises(ConfigError, match="^case:"):
        ScenarioConfig(case=9)
    with pytest.raises(ConfigError, match="^p_flip:"):
        dataclasses.replace(small(), p_flip=0.9)
    config = small()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.p_flip = 0.9
    assert config.p_flip == 0.01


def test_config_is_frozen_all_the_way_down():
    config = small(present_devices=[1, 2, 3])
    with pytest.raises(TypeError):
        config.weights["sonar"] = 1
    with pytest.raises(AttributeError):
        config.present_devices.append(9)
    assert run_scenario(dataclasses.replace(config, trials=1)).grants == 1
    assert hash(config) == hash(small(present_devices=(1, 2, 3)))
    assert config.to_json()["present_devices"] == [1, 2, 3]
    assert copy.deepcopy(config) == config


def test_config_json_round_trip_rejects_unknown_fields():
    config = small()
    again = ScenarioConfig.from_json(config.to_json())
    assert again == config
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json({"cases": 3})


def test_reports_are_deterministic_and_seed_sensitive():
    r1 = run_scenario(small())
    r2 = run_scenario(small())
    assert r1.to_json_str() == r2.to_json_str()
    assert r1.transcript_digest == r2.transcript_digest
    r3 = run_scenario(small(seed=6))
    assert r3.transcript_digest != r1.transcript_digest


def test_zero_trials_has_constant_empty_digest():
    report = run_scenario(small(trials=0))
    assert report.transcript_digest == hashlib.sha256(b"").hexdigest()
    assert report.grants == 0
    assert report.frr is None


def test_genuine_low_noise_mostly_grants():
    report = run_scenario(small(trials=60))
    assert report.grant_rate >= 0.95
    assert report.frr == 1 - report.grant_rate


def test_no_noise_means_no_fe_rejections():
    report = run_scenario(small(p_flip=0.0, trials=40))
    assert report.frr == 0.0


def test_impostor_never_passes_the_gate():
    report = run_scenario(small(impostor=True, trials=40))
    assert report.far == 0.0
    assert report.reason_counts == {"score": 40}


def test_stolen_devices_up_to_threshold_never_win():
    # End-to-end threshold soundness: every k <= t fails in all trials,
    # for both the stored-share and the regenerated-share cases.
    for case in (2, 3):
        for k in (0, 1, 2):
            config = small(case=case, t=2, n=5, adversary="stolen_k",
                           adversary_k=k, trials=100, seed=11 + k)
            report = run_scenario(config)
            assert report.far == 0.0, (case, k)
    over = run_scenario(small(case=2, t=1, n=3, adversary="stolen_k",
                              adversary_k=2, trials=25))
    assert over.far == 1.0   # t+1 stolen shares do defeat the scheme


def test_case1_stolen_sensors_hold_no_key():
    report = run_scenario(small(case=1, adversary="stolen_k",
                                adversary_k=3, trials=25))
    assert report.far == 0.0
    assert report.reason_counts == {"insufficient-devices": 25}


def test_tampered_partial_always_detected():
    report = run_scenario(small(case=2, adversary="tamper_partial",
                                trials=50))
    assert report.far == 0.0
    assert report.reason_counts == {"invalid-partial": 50}


def test_replayed_response_always_denied():
    report = run_scenario(small(case=2, adversary="replay", trials=50))
    assert report.far == 0.0
    assert report.reason_counts == {"replay": 50}


def test_forged_score_response_always_denied():
    for mode in ("cloud-plain", "cloud-encrypted"):
        report = run_scenario(small(case=2, adversary="score_inflate",
                                    score_mode=mode, trials=25))
        assert report.far == 0.0
        assert report.reason_counts == {"score": 25}


def test_eavesdropper_sees_no_plaintext_scores_in_encrypted_mode():
    report = run_scenario(small(case=2, adversary="eavesdrop",
                                score_mode="cloud-encrypted", trials=20))
    assert report.eavesdrop["plaintext_score_values"] == 0
    assert report.eavesdrop["message_types_with_plaintext_scores"] == []
    plain = run_scenario(small(case=2, adversary="eavesdrop",
                               score_mode="cloud-plain", trials=20))
    assert plain.eavesdrop["plaintext_score_values"] > 0


def test_eavesdrop_counts_add_up_over_trials():
    # Trial i of a seed-s scenario draws what the one-trial scenario with
    # seed s ^ i draws, so the counts must be the sum of those runs.
    config = small(case=2, adversary="eavesdrop", score_mode="cloud-plain",
                   trials=4)
    whole = run_scenario(config).eavesdrop
    parts = [run_scenario(small(case=2, adversary="eavesdrop",
                                score_mode="cloud-plain", trials=1,
                                seed=config.seed ^ i)).eavesdrop
             for i in range(config.trials)]
    for key in ("external_messages_scanned", "plaintext_score_values"):
        assert whole[key] == sum(part[key] for part in parts) > 0
    assert whole["message_types_with_plaintext_scores"] == [
        "ScoreRequest", "ScoreResponse"]


def test_absent_devices_shrink_the_quorum():
    ok = run_scenario(small(t=1, n=4, present_devices=[1, 2], trials=20))
    assert ok.grant_rate >= 0.9
    starved = run_scenario(small(t=2, n=4, present_devices=[1, 2],
                                 trials=20))
    assert starved.grant_rate == 0.0
    assert starved.reason_counts == {"insufficient-devices": 20}


def test_gateway_held_share_joins_the_quorum():
    for case in (2, 3):
        report = run_scenario(small(case=case, t=1, n=3,
                                    pd_holds_share=True, trials=20))
        assert report.grant_rate >= 0.9, case


def test_estimate_rates_reports_monotone_frr():
    config = small(trials=120)
    rows = estimate_rates(config, [0.0, 0.1, 0.2])
    assert [row["p_flip"] for row in rows] == [0.0, 0.1, 0.2]
    assert rows[0]["frr"] == 0.0           # no noise, no FE rejection
    assert all(row["far"] == 0.0 for row in rows)
    frrs = [row["frr"] for row in rows]
    assert frrs[0] <= frrs[1] + 0.05 and frrs[1] <= frrs[2] + 0.05


def test_estimate_rates_checks_the_whole_sweep_before_any_run(monkeypatch):
    run = simulator.run_scenario
    calls = []

    def spy(config, transcript=None):
        calls.append(config.p_flip)
        return run(config, transcript)

    monkeypatch.setattr(simulator, "run_scenario", spy)
    with pytest.raises(ConfigError, match=r"p_flip: must lie in \[0, 0.5\]"):
        estimate_rates(ScenarioConfig(trials=2), [0.0, 0.9])
    assert calls == []


def test_share_recovery_failure_rate_oracle():
    # m=16, r=5, p=0.1: binomial tail per block is 0.00856, so a share
    # survives with (1 - 0.00856)^16.
    code = CodeParams(m=16, r=5)
    rate = share_recovery_failure_rate(code, 0.1, trials=4000, seed=42)
    expected = 1 - (1 - 0.00856) ** 16
    assert abs(rate - expected) < 0.03
    # Impostor templates flip half the bits: recovery of all 16 message
    # bits happens with probability 0.5^16, i.e. essentially never.
    impostor = share_recovery_failure_rate(code, 0.5, trials=3000, seed=43)
    assert impostor > 0.999


def test_transcript_file_is_wire_format(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "w") as transcript:
        report = run_scenario(small(trials=10), transcript)
    lines = path.read_text().splitlines()
    assert len(lines) == sum(report.message_counts.values())
    for line in lines:
        msg = message_from_wire(line)
        assert msg.session_id
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == report.transcript_digest


def test_replay_transcript_detects_stale_digest():
    config = small(trials=10)
    report = run_scenario(config)
    assert replay_transcript(report.transcript_digest, config)
    with pytest.raises(NondeterminismError):
        replay_transcript("0" * 64, config)


def test_replay_transcript_names_the_first_divergent_message(monkeypatch):
    config = small(trials=3)
    per_run = sum(run_scenario(config).message_counts.values())
    wire = simulator.message_to_wire
    calls = []

    def drifting(msg):
        # Message 4 of the second run differs from the first run's.
        calls.append(msg)
        line = wire(msg)
        return line + " " if len(calls) == per_run + 5 else line

    monkeypatch.setattr(simulator, "message_to_wire", drifting)
    with pytest.raises(NondeterminismError, match="diverges at message 4:"):
        replay_transcript("0" * 64, config)
    assert len(calls) == 3 * per_run


def test_replay_transcript_names_runs_of_different_length(monkeypatch):
    config = small(trials=3)
    per_run = sum(run_scenario(config).message_counts.values())
    wire = simulator.message_to_wire
    calls = []

    def growing(msg):
        # The last message of the third run carries one more line.
        calls.append(msg)
        line = wire(msg)
        return line + "\nextra" if len(calls) == 3 * per_run else line

    monkeypatch.setattr(simulator, "message_to_wire", growing)
    with pytest.raises(NondeterminismError,
                       match=f"runs differ in length: {per_run} vs "
                             f"{per_run + 1}"):
        replay_transcript("0" * 64, config)


def test_matching_replay_runs_once_without_a_transcript(monkeypatch):
    config = small(trials=3)
    digest = run_scenario(config).transcript_digest
    run = simulator.run_scenario
    transcripts = []

    def spy(config, transcript=None):
        transcripts.append(transcript)
        return run(config, transcript)

    monkeypatch.setattr(simulator, "run_scenario", spy)
    assert replay_transcript(digest, config)
    assert transcripts == [None]


def test_replay_by_an_impostor_never_reaches_the_sp():
    # The gateway denies the impostor's flow, so there is no response to
    # replay: each trial ends in the gateway's denial.
    report = run_scenario(small(case=2, impostor=True, adversary="replay",
                                trials=20))
    assert report.far == 0.0
    assert report.reason_counts == {"score": 20}
    assert "AuthResponse" not in report.message_counts


def test_report_json_shape():
    report = run_scenario(small(trials=5))
    obj = report.to_json()
    text = json.dumps(obj)
    assert json.loads(text) == obj
    assert obj["grants"] + obj["denials"] == obj["trials"]
    assert obj["metadata"]["out_of_scope"]
    assert len(obj["outcomes"]) == 5


def test_forged_encrypted_score_is_decrypted_and_overridden(monkeypatch):
    # The gateway cannot rebuild the forgery from its own ciphertexts, so
    # it decrypts it, once per trial, and gates on local fusion.
    decrypted, modes = [], []
    real_decrypt = protocol.phe_decrypt
    real_compute = protocol._compute_auth_score

    def decrypt(c, keypair):
        decrypted.append(c)
        return real_decrypt(c, keypair)

    def compute_auth_score(*args):
        score = real_compute(*args)
        modes.append(score.mode)
        return score

    monkeypatch.setattr(protocol, "phe_decrypt", decrypt)
    monkeypatch.setattr(protocol, "_compute_auth_score", compute_auth_score)
    report = run_scenario(small(case=2, adversary="score_inflate",
                                score_mode="cloud-encrypted", trials=10))
    assert report.reason_counts == {"score": 10}
    assert len(decrypted) == 10
    assert modes == ["local"] * 10


def test_cloud_encrypted_paillier_bits_must_hold_the_fused_score(
        monkeypatch):
    # The default weights fuse to at most 10^8 < 2^27, and phe_keygen's n
    # exceeds 2^(bits-2): 29 bits is the least size that fits, and at it
    # the gateway believes the service in every trial. Other score modes
    # keep the floor of 16.
    with pytest.raises(ConfigError, match="^paillier_bits: must be >= 29"):
        small(case=2, score_mode="cloud-encrypted", paillier_bits=28)
    small(case=2, score_mode="cloud-plain", paillier_bits=16)
    modes = []
    real = protocol._compute_auth_score
    monkeypatch.setattr(protocol, "_compute_auth_score",
                        lambda *args: modes.append(real(*args)) or modes[-1])
    report = run_scenario(small(case=2, score_mode="cloud-encrypted",
                                paillier_bits=29, trials=20, seed=1))
    assert report.grants == 20
    assert [score.mode for score in modes] == ["cloud"] * 20
