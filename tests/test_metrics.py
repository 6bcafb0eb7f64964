"""Report building and policy comparison math."""

import dataclasses
import math

import pytest

from cloudsched import (
    BUILTIN_NAMES,
    ExecutionMode,
    SimulationResult,
    assign,
    builtin_scenario,
    compare,
    execute_plan,
    summarize,
)
from conftest import busy_of, make_scenario, plan_pairs, result_rows


def mean_cpu_from_plan(scenario, plan):
    """Mean service time computed straight from the plan, bypassing the
    engine; cross-checks column-derived means for space-shared policies."""
    cloudlets = {cl.id: cl for cl in scenario.cloudlets}
    mips = {vm.id: vm.mips for vm in scenario.vms}
    pairs = plan_pairs(scenario, plan)
    total = sum(cloudlets[cid].length / mips[vid] for cid, vid in pairs)
    return total / len(pairs)


def run_policy(scenario):
    return execute_plan(scenario, *assign(scenario))


def test_summarize_fcfs_benchmark(fcfs_scenario):
    report = summarize(run_policy(fcfs_scenario), policy="fcfs")
    assert report.policy == "fcfs"
    assert report.mode is ExecutionMode.SPACE_SHARED
    assert report.n_cloudlets == 12
    assert math.isclose(report.mean_cpu_time, 550.0 / 12, rel_tol=1e-12)
    assert report.makespan == 240.0
    # 5 x 20000 + 7 x 10000 MI spread across the park.
    mips = {vm.id: vm.mips for vm in fcfs_scenario.vms}
    busy = busy_of(fcfs_scenario, report)
    assert math.isclose(sum(busy[vm_id] * mips[vm_id] for vm_id in busy),
                        170000.0, rel_tol=1e-12)


def test_summarize_utilization_per_vm(fcfs_scenario):
    report = summarize(run_policy(fcfs_scenario), policy="fcfs")
    util = {vm_id: busy_time / report.makespan
            for vm_id, busy_time in busy_of(fcfs_scenario, report).items()}
    assert util[1] == 1.0                      # busy 240 of makespan 240
    assert math.isclose(util[2], 30.0 / 240.0, rel_tol=1e-12)
    assert all(0.0 <= u <= 1.0 for u in util.values())


def test_headline_mean_tracks_the_execution_mode(gpa_scenario, rr_scenario):
    gpa_report = summarize(run_policy(gpa_scenario), policy="gpa")
    assert gpa_report.headline_mean == gpa_report.mean_cpu_time == 30.0
    assert gpa_report.mean_completion_time == 55.0

    rr_report = summarize(run_policy(rr_scenario), policy="rr")
    assert rr_report.headline_mean == rr_report.mean_completion_time
    assert math.isclose(rr_report.headline_mean, 1520.0 / 12, rel_tol=1e-12)


def test_summarize_rejects_empty_results():
    from cloudsched import SimulationResult
    empty = SimulationResult(ExecutionMode.SPACE_SHARED, *[()] * 7)
    with pytest.raises(ValueError, match="empty"):
        summarize(empty)


def test_mean_cpu_from_plan_cross_checks_the_engine(fcfs_scenario,
                                                    gpa_scenario):
    for scenario in (fcfs_scenario, gpa_scenario):
        plan, mode = assign(scenario)
        result = execute_plan(scenario, plan, mode)
        assert math.isclose(mean_cpu_from_plan(scenario, plan),
                            result.mean_cpu_time, rel_tol=1e-12)


def test_compare_improvement_is_relative_to_first(fcfs_scenario,
                                                  rr_scenario, gpa_scenario):
    reports = [summarize(run_policy(sc), policy=sc.policy)
               for sc in (fcfs_scenario, rr_scenario, gpa_scenario)]
    improvements = compare(reports)
    assert len(improvements) == 3
    assert improvements[0] == 0.0
    base = reports[0].headline_mean
    assert math.isclose(improvements[2], 100.0 * (base - 30.0) / base,
                        rel_tol=1e-12)
    assert improvements[1] < 0.0    # rr is slower than fcfs here


def test_compare_identical_policies_improve_zero(fcfs_scenario):
    report = summarize(run_policy(fcfs_scenario), policy="fcfs")
    assert compare([report, report])[1] == 0.0


def test_compare_needs_two_reports(fcfs_scenario):
    report = summarize(run_policy(fcfs_scenario), policy="fcfs")
    with pytest.raises(ValueError):
        compare([report])


def test_compare_rejects_mismatched_workloads(fcfs_scenario):
    small = make_scenario([250, 500], [1000, 2000], policy="fcfs")
    with pytest.raises(ValueError):
        compare([summarize(run_policy(fcfs_scenario), policy="fcfs"),
                 summarize(run_policy(small), policy="fcfs")])


def test_compare_rejects_a_zero_divisor():
    # One VM: 5e-321 MI takes 5e-324 s and 5e-324 MI takes 0.0 s, so the
    # makespan is 5e-324 and the mean CPU time underflows to 0.
    mean_zero = make_scenario([1000], [5e-321, 5e-324], policy="fcfs")
    report = summarize(run_policy(mean_zero), policy="fcfs")
    assert report.makespan > 0.0 and report.headline_mean == 0.0
    with pytest.raises(ValueError, match="headline mean of 0"):
        compare([report, report])
    both_zero = make_scenario([1000], [5e-324], policy="fcfs")
    report = summarize(run_policy(both_zero), policy="fcfs")
    with pytest.raises(ValueError, match="makespan of 0"):
        compare([report, report])


def test_summarize_single_record():
    scenario = make_scenario([1000], [10000], policy="fcfs")
    report = summarize(run_policy(scenario), policy="fcfs")
    assert report.mean_cpu_time == 10.0
    assert report.makespan == 10.0
    assert report.n_cloudlets == 1


def test_compare_improvement_with_rr_baseline(rr_scenario, gpa_scenario):
    rr_report = summarize(run_policy(rr_scenario), policy="rr")
    gpa_report = summarize(run_policy(gpa_scenario), policy="gpa")
    improvement = compare([rr_report, gpa_report])[1]
    expected = 100.0 * (rr_report.headline_mean - 30.0) / rr_report.headline_mean
    assert math.isclose(improvement, expected, rel_tol=1e-12)
    assert round(improvement, 1) == 76.3


def test_total_work_is_conserved_across_policies(fcfs_scenario, rr_scenario,
                                                 gpa_scenario):
    for scenario in (fcfs_scenario, rr_scenario, gpa_scenario):
        report = summarize(run_policy(scenario), policy=scenario.policy)
        assert math.isclose(sum(busy_time * vm.mips for vm, busy_time
                                in zip(scenario.vms, report.busy_times, strict=True)),
                            sum(cl.length for cl in scenario.cloudlets),
                            rel_tol=1e-9)


def test_makespan_ignores_record_order(fcfs_scenario):
    result = run_policy(fcfs_scenario)
    columns = ("cloudlet_ids", "vm_ids", "datacenter_ids", "cpu_times",
               "start_times", "finish_times")
    reversed_result = dataclasses.replace(
        result, **{name: getattr(result, name)[::-1] for name in columns})
    assert result_rows(reversed_result) == result_rows(result)[::-1]
    assert summarize(reversed_result).makespan == summarize(result).makespan


SUMMARY_PROPERTIES = ("n_cloudlets", "mean_cpu_time", "mean_completion_time",
                      "headline_mean", "makespan", "mean_utilization")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_summarize_labels_the_result_and_changes_no_number(name):
    scenario = builtin_scenario(name)
    result = run_policy(scenario)
    assert result.policy == ""
    labelled = summarize(result, scenario.policy)
    assert isinstance(labelled, SimulationResult)
    assert labelled == dataclasses.replace(result, policy=scenario.policy)
    assert labelled.policy == scenario.policy
    assert ([getattr(labelled, p) for p in SUMMARY_PROPERTIES]
            == [getattr(result, p) for p in SUMMARY_PROPERTIES])
