import json
import os
import random
import subprocess
import sys

import pytest

from faskit import cli
from faskit.cli import main
from faskit.errors import NondeterminismError
from faskit.simulator import ScenarioConfig, _Trial


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    obj = json.loads(out)
    return obj


def write_config(tmp_path, **overrides):
    config = {"case": 3, "t": 1, "n": 3, "p_flip": 0.01, "seed": 5,
              "trials": 10, "group": "sim"}
    config.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_verify_kat_passes(capsys):
    code, out, err = run_cli(capsys, ["verify-kat"])
    assert code == 0
    obj = parse(out)
    assert obj["all_pass"] is True
    assert len(obj["checks"]) >= 10
    assert "known-answer" in err


def test_keygen_outputs_group_and_sharing(capsys):
    code, out, _ = run_cli(capsys, ["keygen", "--group", "kat", "--t", "1",
                                    "--n", "3", "--seed", "9"])
    assert code == 0
    obj = parse(out)
    assert obj["group"] == {"p": "17", "q": "b", "g": "2"}
    assert len(obj["shares"]) == 3
    assert len(obj["commitments"]) == 2


def test_keygen_draws_from_csprng_unless_seeded(capsys):
    def deal(command, *extra):
        code, out, _ = run_cli(capsys, [command, "--t", "1", "--n", "3",
                                        *extra])
        assert code == 0
        return out

    first, second = parse(deal("keygen")), parse(deal("keygen"))
    assert first["shares"] != second["shares"]
    assert first["public_key"] != second["public_key"]
    assert deal("keygen", "--seed", "9") == deal("keygen", "--seed", "9")

    # CASE3 helper data hides templates drawn from the same source.
    first = parse(deal("enroll", "--case", "3"))
    second = parse(deal("enroll", "--case", "3"))
    assert first["public_key"] != second["public_key"]
    assert first["commitments"] != second["commitments"]
    assert first["pd_state"] != second["pd_state"]
    assert deal("enroll", "--case", "3", "--seed", "9") == \
        deal("enroll", "--case", "3", "--seed", "9")


def test_enroll_dumps_states(capsys):
    code, out, _ = run_cli(capsys, ["enroll", "--case", "3", "--t", "1",
                                    "--n", "3"])
    assert code == 0
    obj = parse(out)
    assert set(obj["pd_state"]["helper_data"]) == {"1", "2", "3"}
    assert all("key_share_value" not in s for s in obj["device_states"])


def test_seeded_enroll_is_trial_0_of_the_scenario(capsys):
    # Devices take the weighted modalities in name order, as in simulate.
    code, out, _ = run_cli(capsys, ["enroll", "--case", "3", "--seed", "4"])
    assert code == 0
    obj = parse(out)
    assert [s["modalities"] for s in obj["device_states"]] == [
        ["gait"], ["heartbeat"], ["location"]]
    config = ScenarioConfig(
        case=3, t=1, n=3, seed=4, trials=1,
        weights={"gait": 0.5, "location": 0.3, "heartbeat": 0.2})
    trial = _Trial(config, random.Random(4))
    assert obj["public_key"] == format(trial.pd.pubkey.y, "x")


def test_auth_scores_follow_modality_order(capsys):
    # location and heartbeat are the second and third modalities, whatever
    # the zero gait weight drops.
    code, out, _ = run_cli(capsys, [
        "auth", "--case", "2", "--seed", "1", "--weights", "0,1,1",
        "--scores", "0.1,0.9,0.5"])
    assert code == 0
    assert abs(parse(out)["fused_score"] - 0.7) < 1e-9


def test_auth_denies_below_threshold(capsys):
    code, out, _ = run_cli(capsys, [
        "auth", "--case", "3", "--scores", "0.8,0.5,0.0",
        "--weights", "0.5,0.3,0.2"])
    assert code == 1
    obj = parse(out)
    assert obj["reason"] == "score"
    assert abs(obj["fused_score"] - 0.55) < 1e-9


def test_auth_grants_by_default(capsys):
    for case in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, ["auth", "--case", case])
        assert code == 0
        assert parse(out)["granted"] is True


def test_auth_ignores_zero_weight_modalities(capsys):
    # Only the custom modality counts; every device must carry it.
    code, out, _ = run_cli(capsys, [
        "auth", "--case", "2", "--t", "1", "--n", "3",
        "--weights", "0,0,0,1", "--seed", "1"])
    assert code == 0
    assert parse(out)["granted"] is True


def test_simulate_is_byte_deterministic(capsys, tmp_path):
    config = write_config(tmp_path)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["simulate", "--config", config,
                                        "--seed", "42"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    report = parse(outputs[0])
    assert report["config"]["seed"] == 42


def test_simulate_writes_only_requested_paths(capsys, tmp_path):
    config = write_config(tmp_path)
    out_path = tmp_path / "report.json"
    log_path = tmp_path / "messages.jsonl"
    before = set(os.listdir(tmp_path))
    code, out, _ = run_cli(capsys, [
        "simulate", "--config", config, "--output", str(out_path),
        "--transcript", str(log_path)])
    assert code == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"report.json", "messages.jsonl"}
    assert json.loads(out_path.read_text()) == parse(out)
    assert log_path.read_text().count("\n") > 0


def test_rates_command(capsys, tmp_path):
    config = write_config(tmp_path, trials=20)
    code, out, _ = run_cli(capsys, ["rates", "--config", config,
                                    "--sweep", "0.0,0.1"])
    assert code == 0
    rows = parse(out)["rows"]
    assert [r["p_flip"] for r in rows] == [0.0, 0.1]


def test_bad_inputs_exit_2_with_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["simulate", "--config",
                                    str(tmp_path / "missing.json")])
    assert code == 2
    assert parse(out)["kind"] == "config"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"case": 9}))
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(bad)])
    assert code == 2
    assert parse(out)["kind"] == "config"

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(notjson)])
    assert code == 2


def test_simulate_transcript_to_a_directory_exits_2(capsys, tmp_path):
    config = write_config(tmp_path)
    code, out, err = run_cli(capsys, ["simulate", "--config", config,
                                      "--transcript", str(tmp_path)])
    assert code == 2
    assert out.count("\n") == 1
    assert parse(out)["kind"] == "config"
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_deeply_nested_config_exits_2(capsys, tmp_path, command):
    # json raises RecursionError for nesting this deep.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [command, "--config", str(deep)]
    if command == "rates":
        argv += ["--sweep", "0.1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert parse(out)["kind"] == "config"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["auth", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_internal_error_exits_3(capsys, tmp_path, monkeypatch):
    # A FaskitError that is not a configuration error is an internal one.
    def broken(config, transcript=None):
        raise NondeterminismError("runs diverge")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = run_cli(capsys, ["simulate", "--config",
                                      write_config(tmp_path)])
    assert code == 3
    assert parse(out) == {"error": "runs diverge", "kind": "internal"}
    assert err.startswith("internal error: ")


def test_any_other_exception_exits_3_with_its_traceback(capsys, tmp_path,
                                                       monkeypatch):
    # Exit 1 means only a denied authentication: an exception main does
    # not classify is an internal error.
    def broken(config, transcript=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = run_cli(capsys, ["simulate", "--config",
                                      write_config(tmp_path)])
    assert code == 3
    assert parse(out) == {"error": "boom", "kind": "internal"}
    assert err.startswith("internal error: boom\n")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path, trials=3)
    proc = subprocess.run(
        [sys.executable, "-m", "faskit.cli", "simulate", "--config", config],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trials"] == 3


BAD_FLAGS = [
    # More weights than the four modalities.
    (["auth", "--weights", "1,1,1,1,1"], "--weights"),
    # An empty score list.
    (["auth", "--scores", ","], "--scores"),
    # A score outside [0, 1].
    (["auth", "--scores", "1.5"], "--scores"),
    (["auth", "--scores", "0.5,nan"], "--scores"),
    (["rates", "--sweep", "x"], "--sweep"),
    # A noise level the scenario's p_flip rule refuses. (The trailing
    # colon keeps the row above its own test id.)
    (["rates", "--sweep", "0.9"], "--sweep:"),
    # A threshold with no --n to deal shares at it.
    (["keygen", "--t", "5"], "--t"),
    # A directory where the scenario file should be.
    (["simulate", "--config", "{tmp}"], "--config"),
]


@pytest.mark.parametrize("argv,flag", BAD_FLAGS,
                         ids=[flag for _, flag in BAD_FLAGS])
def test_bad_flag_exits_2_naming_the_flag(capsys, tmp_path, argv, flag):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] == "rates":
        argv += ["--config", write_config(tmp_path)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    obj = parse(out)
    assert obj["kind"] == "config"
    assert flag in obj["error"]


@pytest.mark.parametrize("argv,field", [
    # Case 2 signs without a fuzzy extractor, yet an even r is refused as
    # it is in a scenario file.
    (["auth", "--case", "2", "--code-r", "4"], "code_r"),
    (["enroll", "--t", "3", "--n", "2"], "t"),
    (["enroll", "--seed", "-1"], "seed"),
    (["auth", "--seed", "-1"], "seed"),
    # kat's order q is 11.
    (["auth", "--group", "kat", "--n", "11"], "n"),
    # keygen deals by the same rules, as a CASE 2 scenario.
    (["keygen", "--t", "1", "--n", "3", "--seed", "-1"], "seed"),
    (["keygen", "--t", "0", "--n", "200"], "n"),
    (["keygen", "--group", "kat", "--n", "11"], "n"),
    # ... and judges the seed when it deals nothing.
    (["keygen", "--seed", "-1"], "seed"),
], ids=["code_r", "t", "seed-enroll", "seed-auth", "n", "seed-keygen",
        "n-keygen-cap", "n-keygen-kat", "seed-keygen-no-n"])
def test_enroll_and_auth_flags_follow_the_scenario_rules(capsys, argv,
                                                         field):
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert parse(out)["error"].startswith(field + ":")


def test_unreadable_config_or_output_exits_2(capsys, tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(listed),
                                    "--seed", "3"])
    assert code == 2
    assert parse(out)["error"].startswith("config:")

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xd0\xff{}")
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(binary)])
    assert code == 2
    assert parse(out)["error"].startswith("--config:")

    # The report is not printed when --output cannot be written: stdout
    # holds the error object alone.
    code, out, _ = run_cli(capsys, ["simulate", "--config",
                                    write_config(tmp_path, trials=1),
                                    "--output", str(tmp_path)])
    assert code == 2
    assert parse(out)["kind"] == "config"
