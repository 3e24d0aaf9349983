"""Tests of the benchmark itself, at tiny sizes.

Run: python3 -m pytest authbench/tests
"""

import json

import pytest

import bench
import run as cli
import tracing
from checkout import ROOT
from workloads import IMPOSTOR, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(trace, table, capsys):
    argv = ["--workload", "sim-trials", "--seed", "11", "--seconds", "0.01",
            "--trace", str(trace)]
    assert cli.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[table]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float)
               for m in last["metrics"].values())


def test_code_tables_match_benchmark_json():
    for table, rows in (("end_to_end", bench.END_TO_END),
                        ("per_layer", tracing.LAYER_METRICS)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[table]] \
            == list(rows)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _pinned_run():
    pinned = bench.load_pinned()
    run = bench.measure("sim-trials", pinned["seed"], 0,
                        min_samples=pinned["prefix"])
    return run, pinned


def test_pinned_values_pass_and_a_wrong_digest_is_rejected():
    run, pinned = _pinned_run()
    bench.check(run, pinned=pinned)
    wrong = json.loads(json.dumps(pinned))
    wrong["workloads"]["sim-trials"]["digest"] = "0" * 64
    with pytest.raises(bench.GateError, match="sim-trials.*digest"):
        bench.check(run, pinned=wrong)


def test_a_granted_impostor_is_rejected():
    run = bench.measure("sim-trials", 5, 0, min_samples=3)
    i = run.kinds.index(IMPOSTOR)
    run.outcomes[i] = "ok"
    with pytest.raises(bench.GateError, match="sim-trials.*impostor"):
        bench.check(run)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    run = bench.measure(name, 3, 0, min_samples=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = bench.measure(name, 3, 0, count=run.timed, tracer=tracer)
    assert traced.outcomes == run.outcomes
    assert traced.digests == run.digests
    bench.check(run, traced=traced)
    metrics = tracer.layer_metrics(run.warmup, run.timed, 1.0)
    assert {name for name, _, _ in tracing.LAYER_METRICS} == set(metrics)
    assert metrics["protocol.pd_run_authentication.self_ms_per_op"] > 0


def test_tracer_puts_every_original_back():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.wrap_sites()]
    with tracing.Tracer().installed():
        during = [vars(owner)[attr]
                  for owner, attr, _, _ in tracing.wrap_sites()]
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing.wrap_sites()]
    assert after == before
    assert all(a is not b for a, b in zip(before, during))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_second_seed_passes_the_invariants(name):
    run = bench.measure(name, 7, 0, min_samples=3)
    assert run.evidence, "expected at least one grant to re-verify"
    bench.check(run)
    assert run.errors == 0


def test_raising_attempts_are_counted_not_fatal(monkeypatch):
    original = WORKLOADS["sim-trials"].run

    def flaky(self, i):
        if i % 10 == 0:
            raise RuntimeError("injected")
        return original(self, i)

    monkeypatch.setattr(WORKLOADS["sim-trials"], "run", flaky)
    run = bench.measure("sim-trials", 5, 0)
    assert run.timed == 300 and run.errors == 30
    assert bench.end_to_end(run, [1.0], 1.0)["answered_ratio"] == 0.9
    bench.check(run)
