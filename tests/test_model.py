"""Domain model: validation catalogue, lookups, plan checking."""

from dataclasses import replace

import pytest

from cloudsched import (
    Cloudlet,
    Datacenter,
    ExecutionMode,
    GeneratorSpec,
    Host,
    Scenario,
    ValidationError,
    Vm,
    builtin_scenario,
    generate,
    load_scenario,
    save_scenario,
    validate_plan,
    validate_scenario,
)
from conftest import make_scenario, violations


def test_valid_scenario_has_no_violations():
    scenario = make_scenario([250, 500], [1000, 2000, 3000])
    assert violations(scenario) == []


def test_validate_scenario_returns_the_same_object():
    scenario = make_scenario([250], [1000])
    assert validate_scenario(scenario) is scenario


def test_cloudlet_is_a_named_tuple_of_three_fields():
    cloudlet = Cloudlet(id=3, length=1500.0, arrival_index=0)
    assert Cloudlet._fields == ("id", "length", "arrival_index")
    assert cloudlet == Cloudlet(3, 1500.0, 0)
    assert (cloudlet.id, cloudlet.length, cloudlet.arrival_index) == (3, 1500.0, 0)
    assert cloudlet._replace(id=4) == Cloudlet(id=4, length=1500.0, arrival_index=0)
    assert cloudlet.id == 3
    # Generated, built-in and loaded scenarios hold the same type.
    scenario = generate(GeneratorSpec(n_tasks=7, seed=2))
    loaded = load_scenario(save_scenario(scenario))
    assert loaded.cloudlets == scenario.cloudlets
    builtin = builtin_scenario("paper12-gpa")
    for cl in loaded.cloudlets + scenario.cloudlets + builtin.cloudlets:
        assert type(cl) is Cloudlet


def test_empty_cloudlet_set_is_flagged():
    scenario = make_scenario([250], [], check=False)
    assert "empty cloudlet set" in violations(scenario)


def test_empty_vm_set_is_flagged():
    scenario = make_scenario([], [1000], check=False)
    assert "empty vm set" in violations(scenario)


def test_unknown_policy_is_flagged():
    scenario = make_scenario([250], [1000], policy="sjf", check=False)
    assert any("sjf" in p for p in violations(scenario))


def test_duplicate_vm_ids_are_flagged():
    scenario = make_scenario([250], [1000], check=False)
    scenario = Scenario(scenario.datacenters,
                        scenario.vms + (Vm(id=1, mips=500.0, ram_mb=512),),
                        scenario.cloudlets, scenario.policy)
    assert "duplicate vm id 1" in violations(scenario)


def test_duplicate_cloudlet_ids_are_flagged():
    scenario = make_scenario([250], [1000], check=False)
    extra = Cloudlet(id=1, length=500.0, arrival_index=1)
    scenario = Scenario(scenario.datacenters, scenario.vms,
                        scenario.cloudlets + (extra,), scenario.policy)
    assert "duplicate cloudlet id 1" in violations(scenario)


def test_duplicate_datacenter_and_host_ids_are_flagged():
    host_a = Host(id=7, datacenter_id=1, total_mips=1000.0, ram_mb=512,
                  storage_mb=1000)
    host_b = Host(id=7, datacenter_id=2, total_mips=1000.0, ram_mb=512,
                  storage_mb=1000)
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=(host_a,)),
                     Datacenter(id=2, hosts=(host_b,)),
                     Datacenter(id=1, hosts=(Host(id=8, datacenter_id=1,
                                                  total_mips=1.0, ram_mb=1,
                                                  storage_mb=1),))),
        vms=(Vm(id=1, mips=250.0, ram_mb=512),),
        cloudlets=(Cloudlet(id=1, length=1000.0, arrival_index=0),),
        policy="fcfs")
    problems = violations(scenario)
    assert "duplicate host id 7" in problems
    assert "duplicate datacenter id 1" in problems


def test_host_datacenter_mismatch_is_flagged():
    host = Host(id=1, datacenter_id=9, total_mips=1000.0, ram_mb=512,
                storage_mb=1000)
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=(host,)),),
        vms=(Vm(id=1, mips=250.0, ram_mb=512),),
        cloudlets=(Cloudlet(id=1, length=1000.0, arrival_index=0),),
        policy="fcfs")
    assert any("declares datacenter 9" in p for p in violations(scenario))


def test_non_positive_quantities_are_flagged():
    scenario = make_scenario([-5], [0], check=False)
    problems = violations(scenario)
    assert "non-positive mips on vm 1" in problems
    assert "non-positive length on cloudlet 1" in problems


def test_non_finite_quantities_are_flagged():
    scenario = make_scenario([float("inf"), 250], [float("nan"), float("-inf")],
                             check=False)
    host = replace(scenario.datacenters[0].hosts[0], total_mips=float("nan"))
    scenario = replace(scenario, datacenters=(Datacenter(id=1, hosts=(host,)),))
    problems = violations(scenario)
    assert "non-finite mips on vm 1" in problems
    assert "non-finite length on cloudlet 1" in problems
    assert "non-finite length on cloudlet 2" in problems
    assert "non-finite mips on host 1" in problems
    assert not any(p.startswith("non-positive") for p in problems)


def test_arrival_indices_must_be_contiguous():
    base = make_scenario([250], [1000, 2000], check=False)
    first, second = base.cloudlets
    gappy = (first, second._replace(arrival_index=5))
    repeated = (first, second._replace(arrival_index=0))
    for cloudlets in (gappy, repeated):
        scenario = replace(base, cloudlets=cloudlets)
        assert any("contiguous" in p for p in violations(scenario))
    # A permutation, but not listed in arrival order.
    swapped = (first._replace(arrival_index=1), second._replace(arrival_index=0))
    assert violations(replace(base, cloudlets=swapped)) == \
        ["cloudlets are not listed in arrival order"]


def test_validation_error_carries_every_violation():
    scenario = make_scenario([-5], [0], policy="nope", check=False)
    with pytest.raises(ValidationError) as err:
        validate_scenario(scenario)
    assert len(err.value.violations) >= 3
    assert "nope" in str(err.value)


def test_with_policy_changes_only_the_policy(fcfs_scenario):
    rebound = fcfs_scenario.with_policy("gpa")
    assert rebound.policy == "gpa"
    assert rebound.vms == fcfs_scenario.vms
    assert rebound.cloudlets == fcfs_scenario.cloudlets
    assert rebound.datacenters == fcfs_scenario.datacenters


def test_lookup_helpers(fcfs_scenario):
    vms = {vm.id: vm for vm in fcfs_scenario.vms}
    cloudlets = {cl.id: cl for cl in fcfs_scenario.cloudlets}
    hosts = {host.id: host for host in fcfs_scenario.hosts()}
    assert vms[2].mips == 1000.0
    assert cloudlets[1].length == 20000.0
    assert hosts[2].datacenter_id == 3
    assert 99 not in vms and 99 not in cloudlets and 99 not in hosts


def test_validate_plan_accepts_a_permutation():
    scenario = make_scenario([250, 500], [1000, 2000, 3000])
    plan = ((2, 1), (3, 2), (1, 1))
    assert validate_plan(scenario, plan) is plan


def test_validate_plan_rejects_missing_and_duplicate_cloudlets():
    scenario = make_scenario([250, 500], [1000, 2000, 3000])
    with pytest.raises(ValidationError, match="permutation"):
        validate_plan(scenario, ((1, 1), (2, 2)))
    with pytest.raises(ValidationError, match="permutation"):
        validate_plan(scenario, ((1, 1), (2, 2), (2, 1), (3, 2)))
    with pytest.raises(ValidationError, match="permutation"):
        validate_plan(scenario, ((1, 1), (2, 2), (2, 1)))


def test_validate_plan_rejects_any_plan_for_repeated_cloudlet_ids():
    # Records are placed by cloudlet id, so a scenario that repeats one
    # (which validate_scenario rejects) cannot run under any plan.
    scenario = make_scenario([250], [1000, 2000], check=False)
    twin = scenario.cloudlets[1]._replace(id=1)
    scenario = replace(scenario, cloudlets=(scenario.cloudlets[0], twin))
    with pytest.raises(ValidationError, match="permutation"):
        validate_plan(scenario, ((1, 1), (1, 1)))


def test_validate_plan_rejects_unknown_vm():
    scenario = make_scenario([250], [1000])
    with pytest.raises(ValidationError, match="unknown vm 9"):
        validate_plan(scenario, ((1, 9),))


def test_execution_mode_serial_values_are_stable():
    assert ExecutionMode.SPACE_SHARED.value == "space_shared"
    assert ExecutionMode.TIME_SHARED.value == "time_shared"
