"""The CLI as a process: each check runs `python -m cloudsched.cli` in a
subprocess, so the exit code is the one `entrypoint`'s `sys.exit` gives."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cloudsched import builtin_scenario, save_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def cli(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("CLOUDSCHED_OUT", None)
    return subprocess.run([sys.executable, "-m", "cloudsched.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


def edited_builtin(path, name, old, new):
    """Write builtin `name` as a document with its first `old` made `new`."""
    text = save_scenario(builtin_scenario(name))
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


def compare_all_builtins(tmp):
    proc = cli("compare", "--builtin", "paper12-fcfs,paper12-rr,paper12-gpa",
               "--out", tmp / "smoke")
    assert proc.returncode == 0
    assert (tmp / "smoke" / "compare.csv").stat().st_size > 0


def sweep_without_counts(tmp):
    assert cli("sweep").returncode == 1


def run_with_an_empty_format_list(tmp):
    proc = cli("run", "--builtin", "paper12-gpa", "--format", ",",
               "--out", tmp / "empty")
    assert proc.returncode == 1
    assert not (tmp / "empty").exists()


def compare_with_a_repeated_policy(tmp):
    proc = cli("compare", "--builtin", "paper12-gpa", "--policy", "gpa,gpa",
               "--out", tmp / "dup")
    assert proc.returncode == 1
    assert not (tmp / "dup").exists()


def run_a_scenario_first_fit_cannot_place(tmp):
    # paper12-fcfs with its second host's RAM cut to 512 MB.
    small = edited_builtin(tmp / "small.json", "paper12-fcfs",
                           '"ram_mb": 1024', '"ram_mb": 512')
    proc = cli("run", "--scenario", small, "--out", tmp / "small")
    assert proc.returncode == 1
    assert proc.stderr == "error: insufficient capacity for vm 5\n"
    assert not (tmp / "small").exists()


def run_a_length_past_float_range(tmp):
    # json.loads reads 1e400 as inf, which the loader rejects where it
    # reads it.
    huge = edited_builtin(tmp / "huge.json", "paper12-fcfs",
                          '"length": 20000.0', '"length": 1e400')
    proc = cli("run", "--scenario", huge, "--out", tmp / "huge")
    assert proc.returncode == 1
    assert (proc.stderr
            == "error: cloudlets[0].length: non-finite number inf is not allowed\n")
    assert not (tmp / "huge").exists()


def run_reversed_cloudlets_list(tmp):
    # The order of a document's cloudlets list is not arrival order.
    doc = json.loads(save_scenario(builtin_scenario("paper12-gpa")))
    (tmp / "in-order.json").write_text(json.dumps(doc))
    doc["cloudlets"].reverse()
    (tmp / "reversed.json").write_text(json.dumps(doc))
    for name in ("in-order", "reversed"):
        proc = cli("run", "--scenario", tmp / f"{name}.json", "--out", tmp / name)
        assert proc.returncode == 0
    for policy in ("fcfs", "rr", "gpa"):
        assert ((tmp / "in-order" / f"{policy}.csv").read_bytes()
                == (tmp / "reversed" / f"{policy}.csv").read_bytes())


@pytest.mark.parametrize("check", [
    compare_all_builtins,
    sweep_without_counts,
    run_with_an_empty_format_list,
    compare_with_a_repeated_policy,
    run_a_scenario_first_fit_cannot_place,
    run_a_length_past_float_range,
    run_reversed_cloudlets_list,
], ids=lambda check: check.__name__)
def test_cli_process_exit_codes_and_outputs(check, tmp_path):
    check(tmp_path)
