"""Acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get exactly one
pass/fail line per criterion. Tolerances are pinned in the assertions;
nothing here depends on wall-clock-sensitive golden files.
"""

import random
import time

from cloudsched import (
    POLICIES,
    ExecutionMode,
    assign,
    builtin_scenario,
    execute_plan,
)
from cloudsched.cli import main
from cloudsched.engine import ps_finish_times
from conftest import (busy_of, integrate_ps, make_random_scenario, make_scenario,
                      result_rows, vm_queues)


def run_builtin(name):
    scenario = builtin_scenario(name)
    plan, mode = assign(scenario)
    return scenario, plan, execute_plan(scenario, plan, mode)


def timed_run(name, repeats=3):
    """Best-of-N wall time for assignment + execution of a builtin."""
    scenario = builtin_scenario(name)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        plan, mode = assign(scenario)
        execute_plan(scenario, plan, mode)
        best = min(best, time.perf_counter() - started)
    return best


def test_criterion_1_fcfs_golden_table():
    _, _, result = run_builtin("paper12-fcfs")
    assert list(result.cpu_times) == [
        80.0, 10.0, 80.0, 20.0, 40.0, 80.0,
        10.0, 80.0, 20.0, 40.0, 80.0, 10.0]                    # tolerance 0
    assert abs(result.mean_cpu_time - 45.833) <= 0.05
    assert timed_run("paper12-fcfs") < 0.010                   # < 10 ms


def test_criterion_2_rr_processor_sharing_groups():
    _, _, result = run_builtin("paper12-rr")
    finishes = {}
    for record in result_rows(result):
        finishes.setdefault(record.vm_id, []).append(record.finish_time)
    # (group size, printed value) per VM of the ring 250,250,250,500,1000.
    expected = {1: (3, 239.99), 2: (3, 119.99), 3: (2, 160.0),
                4: (2, 40.0), 5: (2, 20.0)}
    assert set(finishes) == set(expected)
    for vm_id, (size, printed) in expected.items():
        assert len(finishes[vm_id]) == size
        for value in finishes[vm_id]:
            assert abs(value - printed) / printed <= 0.005     # within 0.5%
    assert timed_run("paper12-rr") < 0.010                     # < 10 ms


def test_criterion_3_gpa_exact_mean_and_assignment():
    scenario, plan, result = run_builtin("paper12-gpa")
    assert result.mean_cpu_time == 30.0                        # exact
    assert result.makespan == 80.0                             # exact
    length = {cl.id: cl.length for cl in scenario.cloudlets}
    queues = {vm_id: sorted(length[c] for c in ids)
              for vm_id, ids in vm_queues(plan).items()}
    assert queues[1] == [20000.0] * 4                          # 1000 MIPS
    assert queues[2] == [10000.0, 10000.0, 20000.0]            # 500 MIPS
    assert sorted(len(queues[i]) for i in (3, 4, 5)) == [1, 2, 2]
    assert all(set(queues[i]) == {10000.0} for i in (3, 4, 5))


def test_criterion_4_efficiency_ordering():
    _, _, fcfs_result = run_builtin("paper12-fcfs")
    _, _, rr_result = run_builtin("paper12-rr")
    _, _, gpa_result = run_builtin("paper12-gpa")
    rr_mean_completion = sum(rr_result.finish_times) / 12
    assert gpa_result.mean_cpu_time < fcfs_result.mean_cpu_time \
        < rr_mean_completion
    assert gpa_result.makespan < fcfs_result.makespan
    assert gpa_result.makespan == 80.0 and fcfs_result.makespan == 240.0


def test_criterion_5_ps_kernel_matches_integrator():
    rng = random.Random(1405)
    for _ in range(200):
        n_jobs = rng.randint(1, 10)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n_jobs)]
        mips = rng.choice((250.0, 500.0, 1000.0))
        exact = ps_finish_times(lengths, mips)
        stepped = integrate_ps(lengths, mips, dt=0.001)
        for a, b in zip(exact, stepped):
            assert abs(a - b) <= 0.01                          # seconds


def test_criterion_6_property_suite():
    # Plan coverage: every cloudlet appears exactly once, on a known VM.
    rng = random.Random(601)
    for _ in range(500):
        scenario = make_random_scenario(rng)
        for policy in POLICIES:
            plan, _ = assign(scenario.with_policy(policy))
            assert sorted(cl_id for cl_id, _ in plan) == \
                sorted(cl.id for cl in scenario.cloudlets)
            vm_ids = {vm.id for vm in scenario.vms}
            assert all(vm_id in vm_ids for _, vm_id in plan)

    # Work conservation: per-VM busy time equals assigned work / MIPS.
    rng = random.Random(602)
    for _ in range(500):
        scenario = make_random_scenario(rng)
        plan, mode = assign(scenario)
        result = execute_plan(scenario, plan, mode)
        assigned = {vm.id: 0.0 for vm in scenario.vms}
        mips = {vm.id: vm.mips for vm in scenario.vms}
        lengths = {cl.id: cl.length for cl in scenario.cloudlets}
        for cl_id, vm_id in plan:
            assigned[vm_id] += lengths[cl_id]
        for vm_id, busy_time in busy_of(scenario, result).items():
            expected = assigned[vm_id] / mips[vm_id]
            assert abs(busy_time - expected) <= 1e-9 * max(1.0, expected)

    # Mode equivalence: with at most one cloudlet per VM the two modes
    # produce identical rows.
    rng = random.Random(603)
    for _ in range(500):
        n_vms = rng.randint(1, 6)
        vm_mips = [rng.choice((250.0, 500.0, 750.0, 1000.0, 1250.0))
                   for _ in range(n_vms)]
        n = rng.randint(1, n_vms)
        scenario = make_scenario(vm_mips,
                                 [rng.randint(1000, 100000) for _ in range(n)],
                                 policy="fcfs")
        vm_ids = [vm.id for vm in scenario.vms]
        rng.shuffle(vm_ids)
        plan = tuple((cl.id, vm_ids[i]) for i, cl in enumerate(scenario.cloudlets))
        space = execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED)
        shared = execute_plan(scenario, plan, ExecutionMode.TIME_SHARED)
        assert result_rows(space) == result_rows(shared)

    # Greedy argmin choices are invariant under uniform MIPS scaling.
    rng = random.Random(604)
    for _ in range(500):
        scenario = make_random_scenario(rng, policy="gpa")
        baseline, _ = assign(scenario)
        factor = rng.choice((0.5, 2.0, 4.0))
        scaled = make_scenario([vm.mips * factor for vm in scenario.vms],
                               [cl.length for cl in scenario.cloudlets],
                               policy="gpa")
        assert assign(scaled)[0] == baseline

    # Cyclic dispatch keeps queue sizes within one of each other.
    rng = random.Random(605)
    for _ in range(500):
        scenario = make_random_scenario(rng, policy="fcfs")
        for policy in ("fcfs", "rr"):
            queues = vm_queues(assign(scenario.with_policy(policy))[0])
            sizes = [len(queues.get(vm.id, [])) for vm in scenario.vms]
            assert max(sizes) - min(sizes) <= 1


def test_criterion_7_sweep_byte_determinism(tmp_path):
    args = ["sweep", "--counts", "100,200,300,400,500", "--seed", "29"]
    started = time.perf_counter()
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    elapsed = time.perf_counter() - started
    first = (tmp_path / "first" / "sweep.csv").read_bytes()
    second = (tmp_path / "second" / "sweep.csv").read_bytes()
    assert first == second                                     # byte-identical
    assert len(first.splitlines()) == 1 + 5 * len(POLICIES)
    assert elapsed < 1.0                                       # both runs
