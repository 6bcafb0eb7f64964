"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest benchmarks -q
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cloudsched  # noqa: E402
import cloudsched.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def scenario_digests(workload: str, seed: int) -> list[str]:
    if workload == "sweep":
        scenarios = [cloudsched.generate(cloudsched.GeneratorSpec(
            n_tasks=n, seed=cloudsched.derive_seed(seed, n)))
            for n in oracle.SWEEP_COUNTS]
    else:
        scenarios = [run.build_scenario(cloudsched, workload, seed)]
    return [hashlib.sha256(cloudsched.save_scenario(s).encode()).hexdigest()
            for s in scenarios]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_scenario_bytes(workload):
    assert scenario_digests(workload, 7) == scenario_digests(workload, 7)
    assert scenario_digests(workload, 7) != scenario_digests(workload, 8)


@pytest.mark.parametrize("seed", range(4))
def test_wide_gpa_hosts_hold_every_vm(seed):
    scenario = run.build_scenario(cloudsched, "wide-gpa", seed)
    assert len(scenario.datacenters) == oracle.WIDE_DATACENTERS
    assert len(scenario.hosts()) == oracle.WIDE_DATACENTERS * oracle.WIDE_HOSTS_PER_DC
    assert len(cloudsched.provision_vms(scenario)) == oracle.WIDE_N_VMS
    # Room for every VM whatever the seed draws: all of the largest class.
    worst = oracle.Inputs((1.0,), (max(oracle.WIDE_MIPS_CLASSES),) * oracle.WIDE_N_VMS,
                          oracle.wide_gpa_inputs(seed).hosts)
    assert len(oracle.first_fit(worst)) == oracle.WIDE_N_VMS


def one_op(tmp_path: Path, workload: str, seed: int, digests: dict) -> run.OpResult:
    out = tmp_path / "out"
    out.mkdir()
    scenario = run.build_scenario(cloudsched, workload, seed)
    if scenario is not None:
        cloudsched.write_scenario(scenario, tmp_path / "scenario.json")
    argv = run.command(workload, seed, tmp_path / "scenario.json", out)
    return run.run_op(cloudsched.cli.main, argv, out, digests)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_program_and_oracle_match_reference_at_default_seed(tmp_path, workload):
    recorded = run.reference_digests(workload)
    exp = oracle.expected(workload, run.DEFAULT_SEED)
    assert {n: run.digest(b) for n, b in exp.outputs.items()} == recorded
    assert one_op(tmp_path, workload, run.DEFAULT_SEED, recorded).ok


def test_program_matches_oracle_at_another_seed(tmp_path):
    exp = oracle.expected("wide-gpa", 12345)
    want = {n: run.digest(b) for n, b in exp.outputs.items()}
    assert one_op(tmp_path, "wide-gpa", 12345, want).ok


def test_wrong_digest_is_a_failed_op(tmp_path):
    wrong = dict(run.reference_digests("deep-queue"))
    wrong["rr.csv"] = "0" * 64
    assert not one_op(tmp_path, "deep-queue", run.DEFAULT_SEED, wrong).ok


def test_raised_exception_is_a_failed_op(tmp_path):
    def raising_main(argv):
        raise cloudsched.CapacityError("insufficient capacity for vm 1")
    assert not run.run_op(raising_main, [], tmp_path, {}).ok


def test_tracer_lists_a_missing_target_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("cloudsched.engine", "no_such_function", "engine.gone"),
        ("cloudsched.no_such_module", "anything", "gone.too"),
    ))
    engine = importlib.import_module("cloudsched.engine")
    original = engine.provision_vms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.provision_vms is not original
        assert tracer.absent == ["cloudsched.engine.no_such_function",
                                 "cloudsched.no_such_module.anything"]
    finally:
        tracer.uninstall()
    assert engine.provision_vms is original


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("cli.main", 0.0, 10.0, None, 0),
             tracing.Span("engine.execute.space_shared", 1.0, 5.0, 0, 0),
             tracing.Span("model.validate_plan", 1.5, 2.0, 1, 0)]
    assert tracing.self_times(spans) == [6.0, 3.5, 0.5]


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_reference_makes_every_op_fail(monkeypatch, capsys):
    corrupted = {"sweep.csv": "f" * 64}
    monkeypatch.setattr(run, "reference_digests", lambda workload: corrupted)
    assert run.main(["--workload", "sweep", "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "0.1", "--trace", "0"]) == 0
    result = last_json(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_has_every_declared_metric(capsys, trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert run.main(["--workload", "deep-queue", "--seed", "3",
                     "--seconds", "0.5", "--trace", str(trace)]) == 0
    result = last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
