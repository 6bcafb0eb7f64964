"""Execution engine: provisioning, the PS kernel, both run modes."""

import math
import pickle
import random
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cloudsched.engine
import cloudsched.model
from cloudsched import (
    POLICIES,
    Cloudlet,
    Datacenter,
    ExecutionMode,
    GeneratorSpec,
    Host,
    Scenario,
    ValidationError,
    Vm,
    assign,
    execute_plan,
    generate,
    load_scenario,
    provision_vms,
    validate_scenario,
)
from cloudsched.engine import ps_finish_times, validate_plan
from conftest import (
    busy_of,
    id_plan,
    integrate_ps,
    linear_first_fit_reference,
    make_random_scenario,
    make_scenario,
    make_shuffled_arrival_document,
    plan_pairs,
    result_rows,
    violations,
    vm_queues,
)


# ---------------------------------------------------------------------------
# provisioning

def test_first_fit_provisioning_debits_hosts(fcfs_scenario):
    binding = provision_vms(fcfs_scenario)
    # Host 1 (2000 MIPS, 1536 MB) takes VMs 1-3; VMs 4-5 spill to host 2.
    assert binding == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}


def test_rr_builtin_provisions_four_and_one(rr_scenario):
    binding = provision_vms(rr_scenario)
    assert binding == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}


def test_provisioning_respects_ram_not_just_mips():
    hosts = (Host(id=1, datacenter_id=1, total_mips=10_000.0, ram_mb=512,
                  storage_mb=1000),
             Host(id=2, datacenter_id=1, total_mips=10_000.0, ram_mb=2048,
                  storage_mb=1000))
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=hosts),),
        vms=(Vm(id=1, mips=100.0, ram_mb=512), Vm(id=2, mips=100.0, ram_mb=512)),
        cloudlets=(Cloudlet(id=1, length=1000.0, arrival_index=0),),
        policy="fcfs")
    assert provision_vms(scenario) == {1: 1, 2: 2}


def test_ram_split_four_plus_one_over_equal_hosts():
    hosts = tuple(Host(id=i, datacenter_id=1, total_mips=10_000.0,
                       ram_mb=2048, storage_mb=1000) for i in (1, 2))
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=hosts),),
        vms=tuple(Vm(id=i, mips=250.0, ram_mb=512) for i in range(1, 6)),
        cloudlets=(Cloudlet(id=1, length=1000.0, arrival_index=0),),
        policy="fcfs")
    assert provision_vms(scenario) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 2}


def test_exact_fit_leaves_nothing_behind():
    host = Host(id=1, datacenter_id=1, total_mips=500.0, ram_mb=512,
                storage_mb=1000)
    vms = (Vm(id=1, mips=500.0, ram_mb=512), Vm(id=2, mips=1.0, ram_mb=1))
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=(host,)),),
        vms=vms[:1],
        cloudlets=(Cloudlet(id=1, length=1000.0, arrival_index=0),),
        policy="fcfs")
    assert provision_vms(scenario) == {1: 1}
    # The exact fit consumed the host: even a 1-MIPS VM no longer fits.
    drained = Scenario(scenario.datacenters, vms, scenario.cloudlets, "fcfs")
    with pytest.raises(ValidationError, match="vm 2"):
        provision_vms(drained)


def test_provisioning_raises_when_nothing_fits():
    scenario = make_scenario([250], [1000], check=False)
    big = Vm(id=2, mips=10_000.0, ram_mb=512)
    scenario = Scenario(scenario.datacenters, scenario.vms + (big,),
                        scenario.cloudlets, scenario.policy)
    with pytest.raises(ValidationError, match="vm 2"):
        provision_vms(scenario)


def test_provisioning_raises_on_ram_overflow():
    scenario = make_scenario([250], [1000], check=False)
    hungry = Vm(id=2, mips=1.0, ram_mb=4096)
    scenario = Scenario(scenario.datacenters, scenario.vms + (hungry,),
                        scenario.cloudlets, scenario.policy)
    with pytest.raises(ValidationError, match="vm 2"):
        provision_vms(scenario)


# MIPS whose float sums round: 0.1 + 0.2 > 0.3 and 0.3 + 0.3 + 0.3 < 0.9.
_ROUNDING_PRONE_MIPS = (0.1, 0.2, 0.3, 0.9, 250.0, 500.0, 1000.0)


@st.composite
def _placement_scenarios(draw):
    """1-8 VMs on 1-4 hosts, one datacenter each. A host's MIPS is the
    float sum of a few of the VMs' MIPS, so exact and near-exact fits are
    common and some hosts are too small for what first-fit offers them."""
    vm_mips = draw(st.lists(st.sampled_from(_ROUNDING_PRONE_MIPS),
                            min_size=1, max_size=8))
    hosts = tuple(
        Host(id=k, datacenter_id=k,
             total_mips=sum(draw(st.lists(st.sampled_from(vm_mips),
                                          min_size=1, max_size=4))),
             ram_mb=512 * draw(st.integers(1, 4)), storage_mb=1000)
        for k in range(1, draw(st.integers(1, 4)) + 1))
    return Scenario(
        datacenters=tuple(Datacenter(id=h.id, hosts=(h,)) for h in hosts),
        vms=tuple(Vm(id=i + 1, mips=m, ram_mb=draw(st.sampled_from((256, 512))))
                  for i, m in enumerate(vm_mips)),
        cloudlets=tuple(Cloudlet(id=j + 1, length=1000.0 * (j + 1), arrival_index=j)
                        for j in range(draw(st.integers(1, 6)))),
        policy="fcfs")


@given(scenario=_placement_scenarios())
def test_validation_and_provisioning_agree(scenario):
    try:
        binding = provision_vms(scenario)
        unplaced = []
    except ValidationError as err:
        unplaced = err.violations
        assert len(unplaced) == 1
        assert unplaced[0].startswith("insufficient capacity for vm ")
    if unplaced:
        # Not validated, so its first run places it; a failed placement
        # is not kept, and the next attempt fails the same way.
        for _ in range(2):
            with pytest.raises(ValidationError) as err:
                execute_plan(scenario, *assign(scenario))
            assert err.value.violations == unplaced
    assert violations(scenario) == unplaced
    if unplaced:
        return
    for host in scenario.hosts():
        assert sum(vm.ram_mb for vm in scenario.vms
                   if binding[vm.id] == host.id) <= host.ram_mb
    # A scenario that validates runs under every policy, each VM in the
    # datacenter of the host first-fit gave it.
    datacenter_of = {h.id: h.datacenter_id for h in scenario.hosts()}
    for policy in POLICIES:
        bound = scenario.with_policy(policy)
        result = execute_plan(bound, *assign(bound))
        rows = result_rows(result)
        assert [r.cloudlet_id for r in rows] == [cl.id for cl in bound.cloudlets]
        assert bound._datacenter_of == \
            {vm.id: datacenter_of[binding[vm.id]] for vm in bound.vms}


# Whole-valued demands leave hosts at exactly the smallest VM's MIPS or RAM;
# 0.1 + 0.2 != 0.3 leaves them a rounding step above or below it.
_FIT_MIPS = (0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 250.0)
_FIT_RAM = (1, 2, 3, 512)


@st.composite
def _first_fit_scenarios(draw):
    """Up to 12 hosts in up to 3 datacenters, and the VMs to place on them.
    A host's MIPS and RAM are each below every VM's, the smallest VM's
    demand plus a few VMs' demands (exactly that demand is left once they
    are placed), or a pool value."""
    vms = draw(st.lists(st.tuples(st.sampled_from(_FIT_MIPS),
                                  st.sampled_from(_FIT_RAM)),
                        min_size=1, max_size=10))
    least_mips, least_ram = min(m for m, _ in vms), min(r for _, r in vms)

    def capacity(least, pool, index):
        kind = draw(st.sampled_from(("below", "least plus", "least plus", "pool")))
        if kind == "below":
            return least / 2 if isinstance(least, float) else least - 1
        if kind == "pool":
            return draw(st.sampled_from(pool)) * draw(st.integers(1, 4))
        total = least
        for vm in draw(st.lists(st.sampled_from(vms), max_size=3)):
            total += vm[index]
        return total

    datacenters = {}
    for host_id in range(1, draw(st.integers(1, 12)) + 1):
        dc_id = draw(st.integers(1, 3))
        datacenters.setdefault(dc_id, []).append(Host(
            id=host_id, datacenter_id=dc_id,
            total_mips=capacity(least_mips, _FIT_MIPS, 0),
            ram_mb=capacity(least_ram, _FIT_RAM, 1), storage_mb=1000))
    return Scenario(
        datacenters=tuple(Datacenter(id=dc_id, hosts=tuple(hosts))
                          for dc_id, hosts in sorted(datacenters.items())),
        vms=tuple(Vm(id=i + 1, mips=m, ram_mb=r) for i, (m, r) in enumerate(vms)),
        cloudlets=(Cloudlet(id=1, length=1.0, arrival_index=0),),
        policy="fcfs")


@given(_first_fit_scenarios())
def test_first_fit_binds_as_the_linear_scan(scenario):
    try:
        expected = linear_first_fit_reference(scenario)
    except ValidationError as err:
        with pytest.raises(ValidationError) as raised:
            provision_vms(scenario)
        assert raised.value.violations == err.violations
    else:
        assert list(provision_vms(scenario).items()) == list(expected.items())


# ---------------------------------------------------------------------------
# processor-sharing kernel

def test_ps_empty_input():
    assert ps_finish_times([], 250.0) == []


def test_ps_single_job_runs_at_full_speed():
    assert ps_finish_times([10000.0], 250.0) == [40.0]


def test_ps_equal_jobs_finish_together_exactly():
    assert ps_finish_times([20000.0] * 3, 250.0) == [240.0, 240.0, 240.0]
    assert ps_finish_times([10000.0] * 3, 250.0) == [120.0, 120.0, 120.0]
    assert ps_finish_times([5000.0] * 7, 500.0) == [70.0] * 7


def test_ps_two_jobs_closed_form():
    # Shorter job: both share until 2*10000/250 = 80; the longer then has
    # 10000 MI left at full speed -> 120 (= total work / mips).
    assert ps_finish_times([20000.0, 10000.0], 250.0) == [120.0, 80.0]


def test_ps_three_job_staircase():
    finish = ps_finish_times([100.0, 300.0, 600.0], 100.0)
    assert finish == [3.0, 7.0, 10.0]


def test_ps_output_order_matches_input_order():
    lengths = [600.0, 100.0, 300.0]
    finish = ps_finish_times(lengths, 100.0)
    assert finish == [10.0, 3.0, 7.0]


def test_ps_last_finish_equals_total_work_over_mips():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n)]
        mips = rng.choice((250.0, 500.0, 1000.0))
        finish = ps_finish_times(lengths, mips)
        assert math.isclose(max(finish), sum(lengths) / mips, rel_tol=1e-12)


def test_ps_finish_order_follows_length_order():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 10)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n)]
        # Near-ties: distinct lengths far closer than any tie tolerance, yet
        # 2**-20 MI apart takes about 1e-9 s at 500 MIPS, far above the
        # clock's rounding (under 1e-12 s here). They finish apart.
        lengths += [lengths[0] + 2.0 ** -20, lengths[-1] - 2.0 ** -19]
        n += 2
        finish = ps_finish_times(lengths, 500.0)
        for i in range(n):
            for j in range(n):
                if lengths[i] < lengths[j]:
                    assert finish[i] < finish[j]
                elif lengths[i] == lengths[j]:
                    assert finish[i] == finish[j]


def test_ps_permuting_inputs_permutes_outputs():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 8)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n)]
        baseline = ps_finish_times(lengths, 500.0)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = ps_finish_times([lengths[p] for p in perm], 500.0)
        assert permuted == [baseline[p] for p in perm]


def test_ps_sharing_never_beats_running_alone():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 8)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n)]
        mips = rng.choice((250.0, 500.0, 1000.0))
        finish = ps_finish_times(lengths, mips)
        for length, value in zip(lengths, finish):
            solo = length / mips
            if n == 1:
                assert value == solo
            else:
                assert value > solo


def test_ps_terminates_on_nan(time_limit):
    # NaN equals nothing, so a group keyed on it must still retire a job.
    assert len(ps_finish_times([math.nan, 5.0], 1000.0)) == 2
    assert len(ps_finish_times([5.0, math.nan, 5.0], 1000.0)) == 3


def test_ps_matches_fixed_timestep_integrator():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 10)
        lengths = [float(rng.randint(1000, 100000)) for _ in range(n)]
        mips = rng.choice((250.0, 500.0, 1000.0))
        exact = ps_finish_times(lengths, mips)
        stepped = integrate_ps(lengths, mips, dt=0.001)
        for a, b in zip(exact, stepped):
            assert abs(a - b) <= 0.01


# ---------------------------------------------------------------------------
# space-shared runs

def test_space_shared_golden_run(fcfs_scenario):
    plan = id_plan(fcfs_scenario, tuple((k + 1, (k % 5) + 1) for k in range(12)))
    result = execute_plan(fcfs_scenario, plan, ExecutionMode.SPACE_SHARED)
    assert result.mode is ExecutionMode.SPACE_SHARED
    assert list(result.cpu_times) == [
        80.0, 10.0, 80.0, 20.0, 40.0, 80.0, 10.0, 80.0, 20.0, 40.0, 80.0, 10.0]
    assert list(result.start_times) == [
        0.0, 0.0, 0.0, 0.0, 0.0, 80.0, 10.0, 80.0, 20.0, 40.0, 160.0, 20.0]
    assert result.makespan == 240.0
    # Columns come back in arrival order regardless of per-VM grouping.
    assert list(result.cloudlet_ids) == list(range(1, 13))


def test_space_shared_vm_usage_accounts_queue_time(fcfs_scenario):
    plan = id_plan(fcfs_scenario, tuple((k + 1, (k % 5) + 1) for k in range(12)))
    result = execute_plan(fcfs_scenario, plan, ExecutionMode.SPACE_SHARED)
    assert busy_of(fcfs_scenario, result) == \
        {1: 240.0, 2: 30.0, 3: 160.0, 4: 40.0, 5: 80.0}


def test_datacenters_follow_provisioning(fcfs_scenario):
    assert fcfs_scenario._datacenter_of == {1: 2, 2: 2, 3: 2, 4: 3, 5: 3}


# ---------------------------------------------------------------------------
# time-shared runs

def test_time_shared_golden_run(rr_scenario):
    plan = id_plan(rr_scenario, tuple((k + 1, (k % 5) + 1) for k in range(12)))
    result = execute_plan(rr_scenario, plan, ExecutionMode.TIME_SHARED)
    assert result.mode is ExecutionMode.TIME_SHARED
    assert list(result.finish_times) == [
        240.0, 120.0, 160.0, 40.0, 20.0, 240.0, 120.0, 160.0, 40.0, 20.0,
        240.0, 120.0]
    # In time-shared accounting cpu_time is the completion time.
    assert result.cpu_times == result.finish_times
    assert result.start_times == (0.0,) * 12


def test_time_shared_busy_time_is_last_finish(rr_scenario):
    plan = id_plan(rr_scenario, tuple((k + 1, (k % 5) + 1) for k in range(12)))
    result = execute_plan(rr_scenario, plan, ExecutionMode.TIME_SHARED)
    assert busy_of(rr_scenario, result) == \
        {1: 240.0, 2: 120.0, 3: 160.0, 4: 40.0, 5: 20.0}


def test_modes_agree_when_every_vm_has_one_cloudlet():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        scenario = make_random_scenario(rng, policy="fcfs", n_cloudlets=n,
                                        max_vms=6)
        if len(scenario.vms) < n:
            continue
        vm_ids = [vm.id for vm in scenario.vms]
        rng.shuffle(vm_ids)
        plan = id_plan(scenario, tuple((cl.id, vm_ids[i])
                                       for i, cl in enumerate(scenario.cloudlets)))
        space = execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED)
        shared = execute_plan(scenario, plan, ExecutionMode.TIME_SHARED)
        assert result_rows(space) == result_rows(shared)
        assert space.busy_times == shared.busy_times


def test_unassigned_vm_still_reports_zero_busy_time():
    scenario = make_scenario([250, 500], [1000])
    plan = id_plan(scenario, ((1, 1),))
    for result in (execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED),
                   execute_plan(scenario, plan, ExecutionMode.TIME_SHARED)):
        assert busy_of(scenario, result)[2] == 0.0


def test_space_shared_unit_case():
    scenario = make_scenario([7500], [7500], policy="fcfs")
    result = execute_plan(scenario, id_plan(scenario, ((1, 1),)),
                          ExecutionMode.SPACE_SHARED)
    assert result.cpu_times == (1.0,)
    assert result.makespan == 1.0


def test_each_vm_serves_its_cloudlets_in_plan_order():
    scenario = make_scenario([250, 500], [1000, 2000, 3000, 4000])
    plan = id_plan(scenario, ((3, 1), (1, 2), (2, 1), (4, 2)))
    result = execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED)
    start = dict(zip(result.cloudlet_ids, result.start_times))
    assert start == {3: 0.0, 2: 12.0, 1: 0.0, 4: 2.0}


def test_identical_runs_are_identical():
    scenario = make_scenario([250, 1000, 500], [9000, 4000, 22000, 100],
                             policy="fcfs")
    plan = id_plan(scenario, ((1, 2), (2, 1), (3, 3), (4, 2)))
    for mode in ExecutionMode:
        assert execute_plan(scenario, plan, mode) == \
            execute_plan(scenario, plan, mode)


def test_execute_plan_dispatches_on_mode(fcfs_scenario):
    plan = id_plan(fcfs_scenario, tuple((k + 1, (k % 5) + 1) for k in range(12)))
    assert execute_plan(fcfs_scenario, plan,
                        ExecutionMode.SPACE_SHARED).mode is ExecutionMode.SPACE_SHARED
    assert execute_plan(fcfs_scenario, plan,
                        ExecutionMode.TIME_SHARED).mode is ExecutionMode.TIME_SHARED


def test_records_come_back_in_arrival_order_not_tuple_order():
    text, by_arrival = make_shuffled_arrival_document()
    scenario = load_scenario(text)
    for policy in POLICIES:
        plan, _ = assign(scenario.with_policy(policy))
        for mode in ExecutionMode:
            result = execute_plan(scenario, plan, mode)
            assert list(result.cloudlet_ids) == by_arrival
            assert dict(zip(result.cloudlet_ids, result.vm_ids)) == \
                dict(plan_pairs(scenario, plan))


def test_runs_reject_invalid_plans(fcfs_scenario):
    with pytest.raises(ValidationError):
        execute_plan(fcfs_scenario, ((0,), (0,)),
                     ExecutionMode.SPACE_SHARED)
    with pytest.raises(ValidationError):
        execute_plan(fcfs_scenario, ((0,), (0,)),
                     ExecutionMode.TIME_SHARED)


def _bad_plan(order_at=None, vm_at_at=None, vm_count=12):
    """The builtin's cyclic plan with one entry of either column replaced:
    `order_at` and `vm_at_at` are (plan position, value)."""
    order, vm_at = list(range(12)), [k % 5 for k in range(vm_count)]
    for column, change in ((order, order_at), (vm_at, vm_at_at)):
        if change:
            column[change[0]] = change[1]
    return order, vm_at


_NOT_TWO_COLUMNS = "plan is not two sized columns: (arrival slots, vm indices)"

# (plan, its violations): every bad entry is named where it sits, and a bad
# slot's cloudlet is then left out. Negative values would wrap as Python
# indices, True and 1.0 would index as 1, and a short column would stop a
# zip early: none of these may run.
_BAD_PLANS = {
    "negative-slot": (_bad_plan(order_at=(0, -1)), [
        "plan position 0: slot -1 is not an int in 0..11",
        "plan leaves out cloudlet 1"]),
    "slot-past-the-end": (_bad_plan(order_at=(11, 12)), [
        "plan position 11: slot 12 is not an int in 0..11",
        "plan leaves out cloudlet 12"]),
    "bool-slot": (_bad_plan(order_at=(1, True)), [
        "plan position 1: slot True is not an int in 0..11",
        "plan leaves out cloudlet 2"]),
    "float-slot": (_bad_plan(order_at=(1, 1.0)), [
        "plan position 1: slot 1.0 is not an int in 0..11",
        "plan leaves out cloudlet 2"]),
    "negative-vm-index": (_bad_plan(vm_at_at=(3, -1)), [
        "plan position 3 (cloudlet 4): vm index -1 is not an int in 0..4"]),
    "vm-index-past-the-end": (_bad_plan(vm_at_at=(3, 5)), [
        "plan position 3 (cloudlet 4): vm index 5 is not an int in 0..4"]),
    "bool-vm-index": (_bad_plan(vm_at_at=(3, True)), [
        "plan position 3 (cloudlet 4): vm index True is not an int in 0..4"]),
    "float-vm-index": (_bad_plan(vm_at_at=(3, 1.0)), [
        "plan position 3 (cloudlet 4): vm index 1.0 is not an int in 0..4"]),
    "short-vm-column": (_bad_plan(vm_count=11), [
        "plan has 12 slots, 11 vm indices"]),
    # A plan that is not two sized columns is one error, whatever its shape.
    "cloudlet-vm-id-pairs": (tuple((k + 1, k % 5 + 1) for k in range(12)),
                             [_NOT_TWO_COLUMNS]),
    "bare-int": (12, [_NOT_TWO_COLUMNS]),
    "none": (None, [_NOT_TWO_COLUMNS]),
    "three-columns": ((range(12), [k % 5 for k in range(12)], range(12)),
                      [_NOT_TWO_COLUMNS]),
    "unsized-columns": ((iter(range(12)), iter([k % 5 for k in range(12)])),
                        [_NOT_TWO_COLUMNS]),
}


@pytest.mark.parametrize("mode", list(ExecutionMode))
@pytest.mark.parametrize("case", list(_BAD_PLANS))
def test_a_bad_plan_entry_is_a_located_validation_error(fcfs_scenario, case,
                                                        mode):
    plan, expected = _BAD_PLANS[case]
    with pytest.raises(ValidationError) as err:
        execute_plan(fcfs_scenario, plan, mode)
    assert err.value.violations == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_an_assigned_plan_runs_only_on_its_counts(fcfs_scenario, policy):
    plan, _ = assign(fcfs_scenario.with_policy(policy))
    ids, lengths = fcfs_scenario.cloudlet_ids, fcfs_scenario.lengths
    # Built for 12 cloudlets on 5 VMs: one fewer of either is refused, with
    # the messages the same columns get as a plain tuple.
    for other in (replace(fcfs_scenario, cloudlet_ids=ids[:11], lengths=lengths[:11]),
                  replace(fcfs_scenario, vms=fcfs_scenario.vms[:4])):
        for mode in ExecutionMode:
            with pytest.raises(ValidationError) as assigned:
                execute_plan(other, plan, mode)
            with pytest.raises(ValidationError) as plain:
                execute_plan(other, tuple(plan), mode)
            assert assigned.value.violations == plain.value.violations
    # Other lengths and ids, the same counts: the plan runs as it is.
    other = replace(fcfs_scenario, cloudlet_ids=range(101, 113),
                    lengths=lengths[::-1])
    assert validate_plan(other, plan) is plan
    for column in plan:
        with pytest.raises((AttributeError, TypeError)):
            column[0] = 0  # immutable
    # A copy is the same plan, its counts included.
    for copied in (deepcopy(plan), pickle.loads(pickle.dumps(plan))):
        assert copied == plan and validate_plan(other, copied) is copied


def test_with_policy_copies_share_one_order_and_one_placement():
    base = generate(GeneratorSpec(60, length_range=(1000, 10 ** 6), seed=5))
    fcfs, rr, gpa = copies = [base.with_policy(policy) for policy in POLICIES]
    execute_plan(fcfs, *assign(fcfs))
    # A space-shared run never sorts the arrival slots.
    assert "_longest_first" not in base._shared
    execute_plan(rr, *assign(rr))
    order = rr._longest_first
    gpa_plan, mode = assign(gpa)
    assert gpa_plan[0] is order
    execute_plan(gpa, gpa_plan, mode)
    later = base.with_policy("rr")
    for scenario in (base, *copies, later):
        assert scenario._longest_first is order
        assert scenario._datacenter_of is base._datacenter_of
    assert list(order) == sorted(range(60), key=lambda slot: -base.lengths[slot])


def test_work_conservation_per_vm_both_modes():
    rng = random.Random(37)
    for _ in range(200):
        scenario = make_random_scenario(rng, policy="fcfs")
        m = len(scenario.vms)
        plan = id_plan(scenario, tuple(
            (cl.id, scenario.vms[k % m].id)
            for k, cl in enumerate(scenario.cloudlets)))
        expected = {vm.id: 0.0 for vm in scenario.vms}
        mips = {vm.id: vm.mips for vm in scenario.vms}
        lengths = {cl.id: cl.length for cl in scenario.cloudlets}
        for cl_id, vm_id in plan_pairs(scenario, plan):
            expected[vm_id] += lengths[cl_id]
        for result in (execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED),
                       execute_plan(scenario, plan, ExecutionMode.TIME_SHARED)):
            for vm_id, busy_time in busy_of(scenario, result).items():
                work = expected[vm_id] / mips[vm_id]
                assert math.isclose(busy_time, work,
                                    rel_tol=1e-9, abs_tol=1e-9)


def _random_run_inputs(rng):
    """A small scenario, round-numbered or not (tiny lengths, whose times
    underflow to 0.0, included), and a plan from one of the policies."""
    if rng.random() < 0.5:
        scenario = make_random_scenario(rng)
    else:
        lengths = [rng.choice((5e-324, rng.uniform(1e-3, 1e6)))
                   for _ in range(rng.randint(1, 16))]
        scenario = make_scenario([rng.uniform(1.0, 3000.0)
                                  for _ in range(rng.randint(1, 6))], lengths,
                                 policy=rng.choice(POLICIES))
    return scenario, assign(scenario)[0]


def test_starts_and_time_shared_cpu_times_match_finishes_bit_for_bit():
    # A time-shared result's cpu_times are its finish column, and every
    # start is +0.0; a space-shared start is +0.0 or the finish before it
    # on the same VM. Each equality holds bit for bit (float.hex tells
    # +0.0 from -0.0).
    rng = random.Random(41)
    for _ in range(200):
        scenario, plan = _random_run_inputs(rng)
        shared = execute_plan(scenario, plan, ExecutionMode.TIME_SHARED)
        assert shared.cpu_times is shared.finish_times
        for record in result_rows(shared):
            assert record.start_time.hex() == (0.0).hex()
            assert record.cpu_time.hex() == record.finish_time.hex()
        space = execute_plan(scenario, plan, ExecutionMode.SPACE_SHARED)
        by_id = {record.cloudlet_id: record for record in result_rows(space)}
        for queue in vm_queues(scenario, plan).values():
            starts = [by_id[c].start_time.hex() for c in queue]
            before = [(0.0).hex()] + [by_id[c].finish_time.hex()
                                      for c in queue[:-1]]
            assert starts == before


# ---------------------------------------------------------------------------
# placement reuse

def _two_datacenters(first_host_mips):
    """Host 1 (datacenter 1) holds `first_host_mips`; host 2 (datacenter 2)
    takes whatever first-fit leaves."""
    return (Datacenter(id=1, hosts=(Host(id=1, datacenter_id=1,
                                         total_mips=first_host_mips,
                                         ram_mb=4096, storage_mb=1000),)),
            Datacenter(id=2, hosts=(Host(id=2, datacenter_id=2,
                                         total_mips=10_000.0,
                                         ram_mb=4096, storage_mb=1000),)))


def test_placement_is_reused_only_for_the_same_infrastructure(monkeypatch):
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return provision_vms(scenario)

    # Counted under both names, so first-fit run from either module shows.
    monkeypatch.setattr(cloudsched.model, "provision_vms", counting)
    monkeypatch.setattr(cloudsched.engine, "provision_vms", counting)
    vms = tuple(Vm(id=i, mips=500.0, ram_mb=512) for i in (1, 2, 3))
    cloudlets = tuple(Cloudlet(id=i, length=1000.0 * i, arrival_index=i - 1)
                      for i in (1, 2, 3))
    a = Scenario(_two_datacenters(1000.0), vms, cloudlets, "fcfs")
    # The same VM ids on another host layout: VM 2 no longer fits host 1.
    b_direct = Scenario(_two_datacenters(500.0),
                        tuple(vm._replace() for vm in vms),
                        cloudlets, "fcfs")
    b_replaced = replace(a, datacenters=_two_datacenters(500.0))
    # Equal to `a` but made of other objects: placed afresh, not looked up.
    a_equal = Scenario(_two_datacenters(1000.0), tuple(vm._replace() for vm in vms),
                       cloudlets, "fcfs")
    plan = id_plan(a, ((1, 1), (2, 2), (3, 3)))

    def own_placement(scenario):
        datacenter_of = {h.id: h.datacenter_id for h in scenario.hosts()}
        return {vm: datacenter_of[host]
                for vm, host in provision_vms(scenario).items()}

    assert own_placement(a) == own_placement(a_equal) == {1: 1, 2: 1, 3: 2}
    assert own_placement(b_direct) == own_placement(b_replaced) == \
        {1: 1, 2: 2, 3: 2}
    placed = []
    for scenario in (a, b_direct, a, b_replaced, a, a_equal):
        before = len(calls)
        for mode in ExecutionMode:
            execute_plan(scenario, plan, mode)
        assert scenario._datacenter_of == own_placement(scenario)
        # Each scenario object is placed on its first run, and only then.
        new = [] if any(s is scenario for s in placed) else [scenario]
        assert list(map(id, calls[before:])) == list(map(id, new))
        placed += new
    assert len(calls) == 4

    # A copy bound to another policy shares the placement: no new call.
    copy = a_equal.with_policy("rr")
    assert copy._datacenter_of is a_equal._datacenter_of
    execute_plan(copy, plan, ExecutionMode.TIME_SHARED)
    assert copy._datacenter_of == own_placement(a)
    assert len(calls) == 4


def test_a_scenario_keeps_its_columns_and_a_replace_copy_builds_its_own():
    scenario = make_scenario([250, 500], [1000, 2000, 3000], check=False)
    ids, lengths = scenario.cloudlet_ids, scenario.lengths
    assert (ids, lengths, scenario.arrival_indices) == \
        ((1, 2, 3), (1000.0, 2000.0, 3000.0), None)
    validate_scenario(scenario)
    # Runs, and copies bound to another policy, read the one set of columns.
    copy = scenario.with_policy("gpa")
    for rebound in (scenario, copy):
        assert execute_plan(rebound, *assign(rebound)).cloudlet_ids is ids
        assert rebound.cloudlet_ids is ids and rebound.lengths is lengths

    # A copy with other cloudlets builds its columns from them, not from
    # `scenario`.
    moved = replace(scenario, cloudlets=(Cloudlet(7, 500.0, 0),
                                         Cloudlet(5, 4000.0, 1)))
    result = execute_plan(moved, id_plan(moved, ((5, 1), (7, 2))),
                          ExecutionMode.SPACE_SHARED)
    assert list(zip(result.cloudlet_ids, result.cpu_times)) == \
        [(7, 1.0), (5, 16.0)]
    assert (moved.cloudlet_ids, moved.lengths, moved.arrival_indices) == \
        ((7, 5), (500.0, 4000.0), None)
    with pytest.raises(ValidationError, match="plan position 2: slot 2 "):
        execute_plan(moved, assign(scenario)[0], ExecutionMode.SPACE_SHARED)


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_every_column_is_a_tuple_of_one_value_per_cloudlet(fcfs_scenario, mode):
    result = execute_plan(fcfs_scenario, assign(fcfs_scenario)[0], mode)
    # The ids column is the scenario's own, a range for a builtin.
    assert result.cloudlet_ids is fcfs_scenario.cloudlet_ids
    columns = (tuple(result.cloudlet_ids), result.vm_ids, result.cpu_times,
               result.start_times, result.finish_times)
    assert [(type(c), len(c)) for c in columns] == [(tuple, 12)] * 5
    assert (type(result.busy_times), len(result.busy_times)) == (tuple, 5)
