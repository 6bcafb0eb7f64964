"""Broker policies: cyclic dispatch, the greedy scheduler, dispatching."""

import importlib
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import (
    POLICIES,
    ExecutionMode,
    Scenario,
    Vm,
    assign,
    execute_plan,
)
from cloudsched.policies import _cyclic_plan
from conftest import (make_random_scenario, make_scenario, plan_pairs,
                      vm_queues)


def assigned_pairs(scenario):
    """The scenario's policy plan as (cloudlet id, vm id) pairs."""
    return plan_pairs(scenario, assign(scenario)[0])


def greedy_reference(scenario):
    """Exact-arithmetic re-implementation of the greedy scheduler.

    Same rule — longest first, earliest estimated finish, ties to the
    faster then lower-id VM — but all ratios are Fractions, so any float
    comparison bug in the production code shows up as a plan mismatch.
    """
    ranked = sorted(scenario.cloudlets, key=lambda c: (-c.length, c.arrival_index))
    work = {vm.id: Fraction(0) for vm in scenario.vms}
    entries = []
    for cl in ranked:
        best = min(
            scenario.vms,
            key=lambda vm: ((work[vm.id] + Fraction(cl.length)) / Fraction(vm.mips),
                            -vm.mips, vm.id),
        )
        entries.append((cl.id, best.id))
        work[best.id] += Fraction(cl.length)
    return tuple(entries)


def linear_gpa_reference(scenario):
    """The greedy scheduler as a float scan over every VM per cloudlet.

    Same float arithmetic as the gpa policy, so the two plans must be equal
    entry for entry, including where float sums round to a tie.
    """
    ranked = sorted(scenario.cloudlets, key=lambda c: (-c.length, c.arrival_index))
    assigned_work = {vm.id: 0.0 for vm in scenario.vms}
    entries = []
    for cl in ranked:
        length = cl.length
        best = min(
            scenario.vms,
            key=lambda vm: ((assigned_work[vm.id] + length) / vm.mips,
                            -vm.mips, vm.id),
        )
        entries.append((cl.id, best.id))
        assigned_work[best.id] += length
    return tuple(entries)


# A few MIPS values shared by many VMs, and lengths whose float sums round
# to ties: 0.1 + 0.2 != 0.3, 1e16 + 1.0 == 1e16, and lengths all equal.
_TIE_PRONE_LENGTHS = (0.1, 0.2, 0.3, 1.0, 3.0, 1e16)


@st.composite
def _tie_prone_gpa_scenarios(draw):
    if draw(st.booleans()):
        mips_pool = draw(st.lists(
            st.sampled_from((0.3, 3.0, 7.0, 250.0, 300.0, 1000.0)),
            min_size=1, max_size=4))
        vm_mips = draw(st.lists(st.sampled_from(mips_pool),
                                min_size=1, max_size=60))
    else:
        # k = m: every VM has a MIPS value of its own. Powers of two apart
        # make ratios of different classes tie.
        vm_mips = draw(st.lists(
            st.one_of(st.sampled_from((0.3, 0.6, 3.0, 7.0, 250.0, 500.0,
                                       1000.0, 2000.0)),
                      st.floats(min_value=0.1, max_value=1e4)),
            min_size=1, max_size=60, unique=True))
    length = st.one_of(st.sampled_from(_TIE_PRONE_LENGTHS),
                       st.floats(min_value=0.001, max_value=1e6))
    n = draw(st.integers(min_value=1, max_value=80))
    if draw(st.booleans()):
        lengths = [draw(length)] * n
    else:
        lengths = draw(st.lists(length, min_size=n, max_size=n))
    # VM ids in no set order, so a VM's position is not its rank by id.
    vm_ids = draw(st.permutations(range(1, len(vm_mips) + 1)))
    return make_scenario(vm_mips, lengths, policy="gpa", vm_ids=vm_ids)


# ---------------------------------------------------------------------------
# cyclic policies

def _distinct_ids(k):
    return st.lists(st.integers(1, 10 ** 6), min_size=k, max_size=k, unique=True)


@pytest.mark.parametrize("shape", ["fewer", "equal", "more"])
@given(data=st.data())
def test_cyclic_plan_deals_cloudlet_k_to_vm_k_mod_m(shape, data):
    # n < m, n = m or n > m cloudlets on m VMs, with ids in no set order:
    # the deal follows declared order, not id order.
    m = data.draw(st.integers(2 if shape == "fewer" else 1, 12))
    if shape == "fewer":
        n = data.draw(st.integers(1, m - 1))
    elif shape == "equal":
        n = m
    else:
        n = data.draw(st.integers(m + 1, 4 * m))
    vm_ids, cloudlet_ids = data.draw(_distinct_ids(m)), data.draw(_distinct_ids(n))
    base = make_scenario([250] * m, [1000] * n)
    scenario = replace(
        base, vms=tuple(vm._replace(id=i) for vm, i in zip(base.vms, vm_ids)),
        cloudlets=tuple(cl._replace(id=i)
                        for cl, i in zip(base.cloudlets, cloudlet_ids)))
    assert plan_pairs(scenario, _cyclic_plan(scenario)) == tuple(
        (cloudlet_ids[k], vm_ids[k % m]) for k in range(n))


def test_fcfs_deals_cloudlets_cyclically(fcfs_scenario):
    plan, mode = assign(fcfs_scenario)
    assert mode is ExecutionMode.SPACE_SHARED
    assert plan_pairs(fcfs_scenario, plan) == tuple(
        (k + 1, (k % 5) + 1) for k in range(12))


def test_rr_uses_declared_vm_order_as_ring(rr_scenario):
    plan, mode = assign(rr_scenario)
    assert mode is ExecutionMode.TIME_SHARED
    plan = plan_pairs(rr_scenario, plan)
    assert plan == tuple(
        (k + 1, (k % 5) + 1) for k in range(12))
    # The builtin declares the ring MIPS-ascending.
    ring = [vm_id for _, vm_id in plan[:5]]
    mips = {vm.id: vm.mips for vm in rr_scenario.vms}
    assert [mips[i] for i in ring] == \
        [250.0, 250.0, 250.0, 500.0, 1000.0]


def test_cyclic_queue_sizes_differ_by_at_most_one():
    rng = random.Random(43)
    for _ in range(200):
        scenario = make_random_scenario(rng, policy="fcfs")
        queues = vm_queues(scenario, assign(scenario)[0])
        sizes = [len(queues.get(vm.id, [])) for vm in scenario.vms]
        assert max(sizes) - min(sizes) <= 1


def test_fcfs_and_rr_share_the_same_plan():
    rng = random.Random(47)
    for _ in range(50):
        scenario = make_random_scenario(rng, policy="fcfs")
        assert assign(scenario.with_policy("fcfs"))[0] == \
            assign(scenario.with_policy("rr"))[0]


# ---------------------------------------------------------------------------
# greedy priority policy

def test_gpa_reproduces_the_benchmark_assignment(gpa_scenario):
    queues = vm_queues(gpa_scenario, assign(gpa_scenario)[0])
    length = {cl.id: cl.length for cl in gpa_scenario.cloudlets}
    by_vm = {vm_id: sorted(length[c] for c in ids)
             for vm_id, ids in queues.items()}
    assert by_vm[1] == [20000.0] * 4                    # 1000 MIPS
    assert by_vm[2] == [10000.0, 10000.0, 20000.0]      # 500 MIPS
    assert by_vm[3] == [10000.0] * 2                    # 250 MIPS
    assert by_vm[4] == [10000.0] * 2
    assert by_vm[5] == [10000.0]


def test_gpa_processes_longest_cloudlets_first():
    scenario = make_scenario([500], [100, 900, 500, 900], policy="gpa")
    plan = assigned_pairs(scenario)
    # Descending length, ties by arrival: ids 2, 4 (both 900), 3, 1.
    assert [cl_id for cl_id, _ in plan] == [2, 4, 3, 1]


def test_gpa_first_pick_is_the_fastest_vm():
    scenario = make_scenario([250, 1000, 500], [8000], policy="gpa")
    assert assigned_pairs(scenario) == ((1, 2),)


def test_gpa_ratio_tie_prefers_higher_mips():
    # After two 1000s on the 500-MIPS VM its ratio for a third equals the
    # idle 250-MIPS VM's ratio exactly; the faster VM must win the tie.
    scenario = make_scenario([500, 250], [1000, 1000, 1000], policy="gpa")
    queues = vm_queues(scenario, assign(scenario)[0])
    assert queues[1] == [1, 2]
    assert queues[2] == [3]


def test_gpa_mips_tie_prefers_lower_vm_id():
    scenario = make_scenario([250, 250], [1000], policy="gpa")
    assert assigned_pairs(scenario) == ((1, 1),)


def test_gpa_float_tie_between_unequal_works_prefers_lower_vm_id():
    # After 1e16 and 3.0 on VM 1 and 1e16 and 2.0 on VM 2, VM 2 carries
    # less work, but 1.0 more rounds both works to the same float: the last
    # cloudlet goes to VM 1, the lower id, though VM 2 is the class's
    # least-loaded VM.
    scenario = make_scenario([3.0, 3.0], [3.0, 1e16, 2.0, 1e16, 1.0],
                             policy="gpa")
    plan = assigned_pairs(scenario)
    assert plan == ((2, 1), (4, 2), (1, 1), (3, 2), (5, 1))
    assert plan == linear_gpa_reference(scenario)


def test_gpa_tie_walk_crosses_three_works():
    # After the first three cloudlets VM 3 carries 2**54 - 4, VM 2 2**54 - 2
    # and VM 1 2**54. Floats are 4 apart above 2**54 and the division by
    # 0.75 rounds too, so 2.0 more gives all three works one ratio: the last
    # cloudlet goes to VM 1, the lowest id, which only a walk past the
    # second work reaches.
    scenario = make_scenario([0.75] * 3,
                             [2.0, 2.0**54 - 4, 2.0**54, 2.0**54 - 2],
                             policy="gpa")
    plan = assigned_pairs(scenario)
    assert plan == ((3, 1), (4, 2), (2, 3), (1, 1))
    assert plan == linear_gpa_reference(scenario)


def test_gpa_reuses_a_work_whose_id_heap_a_tie_pick_emptied():
    # Near 2**53 floats are 2 apart, so works 2**53 and 2**53 + 2 round to
    # the same ratio once a length is added. Cloudlet 6 ties across them
    # and goes to VM 1 at 2**53 + 2; cloudlet 10 ties again and takes VM 2,
    # the last VM at 2**53 + 2, off that work. Cloudlet 1 then brings VM 3
    # to 2**53 + 2, and the later picks must find it at that work.
    big = 2.0 ** 53
    scenario = make_scenario(
        [6.0] * 4,
        [2.0, big, 2.0, big + 2, big, big, big + 2, 2.0, 2.0, 3.0],
        policy="gpa")
    plan = assigned_pairs(scenario)
    assert plan == ((4, 1), (7, 2), (2, 3), (5, 4), (6, 1), (10, 2),
                    (1, 3), (3, 4), (8, 3), (9, 4))
    assert plan == linear_gpa_reference(scenario)


def test_gpa_moves_a_pick_after_equal_works_with_lower_ids():
    # Every pick lands on a work that other VMs hold too. Placed before
    # them, it would hide their lower ids from the next pick.
    scenario = make_scenario([1.0] * 3, [5.0] * 7, policy="gpa")
    assert assigned_pairs(scenario) == tuple((j + 1, j % 3 + 1) for j in range(7))


def test_gpa_matches_exact_arithmetic_reference():
    rng = random.Random(53)
    for _ in range(300):
        scenario = make_random_scenario(rng, policy="gpa")
        # VM ids in no set order, so a VM's position is not its rank by id.
        vm_ids = rng.sample(range(1, len(scenario.vms) + 1), len(scenario.vms))
        scenario = replace(scenario, vms=tuple(
            vm._replace(id=i) for vm, i in zip(scenario.vms, vm_ids)))
        assert assigned_pairs(scenario) == greedy_reference(scenario)


@given(_tie_prone_gpa_scenarios())
def test_gpa_matches_the_linear_scan_on_tie_prone_scenarios(scenario):
    assert assigned_pairs(scenario) == linear_gpa_reference(scenario)


def test_gpa_matches_the_linear_scan_on_a_wide_scenario():
    # 1,000 cloudlets on 400 VMs in 4 MIPS classes: the shape where the
    # per-class search replaces a 400-VM scan.
    rng = random.Random(7)
    scenario = make_scenario(
        [(250, 500, 1000, 2000)[i % 4] for i in range(400)],
        [rng.randint(1000, 50000) for _ in range(1000)], policy="gpa")
    assert assigned_pairs(scenario) == linear_gpa_reference(scenario)


def test_gpa_plan_is_invariant_under_uniform_mips_scaling():
    rng = random.Random(59)
    for _ in range(100):
        scenario = make_random_scenario(rng, policy="gpa")
        baseline, _ = assign(scenario)
        for factor in (0.5, 2.0, 4.0):
            scaled = Scenario(
                datacenters=tuple(
                    dc._replace(hosts=tuple(
                        h._replace(total_mips=h.total_mips * factor)
                        for h in dc.hosts))
                    for dc in scenario.datacenters),
                vms=tuple(vm._replace(mips=vm.mips * factor)
                          for vm in scenario.vms),
                cloudlets=scenario.cloudlets,
                policy="gpa")
            assert assign(scaled)[0] == baseline


def gpa_vm_order(vms, lengths):
    """VM ids in gpa's pick order for `lengths` (given longest first) on
    `vms`. With each length short enough that no busy VM beats an idle
    one, the picks walk the VMs by descending MIPS, then ascending id."""
    scenario = replace(make_scenario([250], lengths, policy="gpa", check=False),
                       vms=tuple(vms))
    return [vm_id for _, vm_id in assigned_pairs(scenario)]


def gpa_cloudlet_order(scenario):
    """Cloudlet ids in the order gpa plans them."""
    return [cl_id for cl_id, _ in assigned_pairs(scenario.with_policy("gpa"))]


def test_rank_helpers_break_ties_deterministically():
    scenario = make_scenario([500, 1000, 500], [10, 20, 20, 5])
    assert gpa_vm_order(scenario.vms, [20, 10, 10]) == [2, 1, 3]
    assert gpa_cloudlet_order(scenario) == [2, 3, 1, 4]


def test_rank_vms_handles_zero_based_ids():
    # The tie rule is a pure function of (mips, id); it works on any id scheme.
    vms = tuple(Vm(id=i, mips=m, ram_mb=512)
                for i, m in enumerate((250.0, 1000.0, 250.0, 500.0, 250.0)))
    assert gpa_vm_order(vms, [100, 40, 10, 10, 10]) == [1, 3, 0, 2, 4]
    assert gpa_vm_order(vms[:1], [100]) == [0]
    equal = tuple(Vm(id=i, mips=250.0, ram_mb=512) for i in (3, 1, 2))
    assert gpa_vm_order(equal, [10, 10, 10]) == [1, 2, 3]


def test_rank_cloudlets_on_the_benchmark_workload(fcfs_scenario):
    ranked = gpa_cloudlet_order(fcfs_scenario)
    assert ranked[:5] == [1, 3, 6, 8, 11]       # the 20000 MI cloudlets
    assert ranked[5:] == [2, 4, 5, 7, 9, 10, 12]


def test_fcfs_single_vm_keeps_arrival_order():
    scenario = make_scenario([250], [100, 200, 300], policy="fcfs")
    assert assigned_pairs(scenario) == ((1, 1), (2, 1), (3, 1))


def test_fcfs_equal_counts_give_a_bijection():
    scenario = make_scenario([250, 500, 1000], [100, 200, 300], policy="fcfs")
    assert assigned_pairs(scenario) == ((1, 1), (2, 2), (3, 3))


def test_rr_with_fewer_cloudlets_than_vms_matches_fcfs_times():
    scenario = make_scenario([250, 500, 1000], [5000, 8000], policy="rr")
    rr_result = execute_plan(scenario, *assign(scenario))
    fcfs_result = execute_plan(scenario, *assign(scenario.with_policy("fcfs")))
    assert rr_result.cpu_times == fcfs_result.cpu_times


def test_policies_are_stable():
    rng = random.Random(61)
    for _ in range(30):
        scenario = make_random_scenario(rng)
        for policy in POLICIES:
            rebound = scenario.with_policy(policy)
            assert assign(rebound) == assign(rebound)


# ---------------------------------------------------------------------------
# dispatch

def test_assign_routes_by_scenario_policy(fcfs_scenario, rr_scenario,
                                          gpa_scenario):
    assert assign(fcfs_scenario)[1] is ExecutionMode.SPACE_SHARED
    assert assign(rr_scenario)[1] is ExecutionMode.TIME_SHARED
    assert assigned_pairs(gpa_scenario) == greedy_reference(gpa_scenario)


def test_assign_rejects_unknown_policy():
    scenario = make_scenario([250], [1000], policy="sjf", check=False)
    with pytest.raises(ValueError, match="sjf"):
        assign(scenario)


@pytest.mark.parametrize("names", [POLICIES + ("sjf",), POLICIES[:-1]],
                         ids=["name-without-a-plan", "plan-without-a-name"])
def test_policy_names_and_the_plan_table_must_agree(monkeypatch, names):
    # A policy listed in model.POLICIES but missing from the plan table, or
    # the reverse, fails the import instead of a run with "unknown policy".
    import cloudsched.model
    monkeypatch.setattr(cloudsched.model, "POLICIES", names)
    monkeypatch.delitem(sys.modules, "cloudsched.policies")
    with pytest.raises(ImportError, match="does not match"):
        importlib.import_module("cloudsched.policies")
