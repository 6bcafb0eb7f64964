"""Domain model: validation catalogue, lookups, plan checking."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    validate_scenario,
)
from cloudsched.engine import validate_plan
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


def test_a_non_positive_vm_id_is_flagged():
    base = make_scenario([250], [1000])
    scenario = replace(base, vms=(base.vms[0]._replace(id=0),))
    assert violations(scenario) == ["non-positive vm id 0"]


def test_a_non_positive_vm_ram_is_flagged():
    base = make_scenario([250], [1000])
    scenario = replace(base, vms=(base.vms[0]._replace(ram_mb=0),))
    assert violations(scenario) == ["non-positive ram on vm 1"]


def test_a_non_positive_host_storage_is_flagged():
    base = make_scenario([250], [1000])
    host = base.datacenters[0].hosts[0]._replace(storage_mb=0)
    scenario = replace(base, datacenters=(Datacenter(id=1, hosts=(host,)),))
    assert violations(scenario) == ["non-positive storage on host 1"]


def test_non_finite_quantities_are_flagged():
    scenario = make_scenario([float("inf"), 250], [float("nan"), float("-inf")],
                             check=False)
    host = scenario.datacenters[0].hosts[0]._replace(total_mips=float("nan"))
    scenario = replace(scenario, datacenters=(Datacenter(id=1, hosts=(host,)),))
    problems = violations(scenario)
    assert "non-finite mips on vm 1" in problems
    assert "non-finite length on cloudlet 1" in problems
    assert "non-finite length on cloudlet 2" in problems
    assert "non-finite mips on host 1" in problems
    assert not any(p.startswith("non-positive") for p in problems)


def test_one_infinite_or_nan_length_among_positive_ones_is_flagged():
    # The smallest length is positive, so only the finiteness check sees them.
    scenario = make_scenario([250], [1000, float("inf"), 2000, float("nan")],
                             check=False)
    assert violations(scenario) == ["non-finite length on cloudlet 2",
                                    "non-finite length on cloudlet 4"]


def test_a_non_positive_cloudlet_id_is_flagged():
    base = make_scenario([250], [1000, 1000], check=False)
    cloudlets = (Cloudlet(1, 1000.0, 0), Cloudlet(0, 1000.0, 1))
    assert violations(replace(base, cloudlets=cloudlets)) == [
        "non-positive cloudlet id 0"]


def test_an_int_past_float_range_in_a_number_field_is_flagged_not_raised():
    # No float holds these ints: summing or testing them as floats raises
    # OverflowError, which must not escape validation.
    base = make_scenario([250], [1000, 1000], check=False)
    host = base.datacenters[0].hosts[0]._replace(total_mips=-10 ** 400)
    scenario = replace(base, datacenters=(Datacenter(1, (host,)),),
                       vms=(Vm(1, 10 ** 400, 512),),
                       cloudlets=(Cloudlet(1, 1000.0, 0), Cloudlet(2, 10 ** 400, 1)))
    assert violations(scenario) == ["mips out of float range on host 1",
                                    "mips out of float range on vm 1",
                                    "length out of float range on cloudlet 2"]
    # The largest int that float() rounds down, not up, is in range.
    edge = replace(base, vms=(Vm(1, 2 ** 1024 - 2 ** 970 - 1, 512),))
    assert not any("range" in p for p in violations(edge))


def test_cloudlet_violations_are_listed_per_offender_in_cloudlet_order():
    base = make_scenario([250], [1000, 1000, 1000, 1000], check=False)
    cloudlets = (Cloudlet(3, 1000.0, 0), Cloudlet(0, -1.0, 1),
                 Cloudlet(-2, float("nan"), 2), Cloudlet(3, 5.0, 3))
    assert violations(replace(base, cloudlets=cloudlets)) == [
        "non-positive cloudlet id 0",
        "non-positive length on cloudlet 0",
        "non-positive cloudlet id -2",
        "non-finite length on cloudlet -2",
        "duplicate cloudlet id 3",
    ]


# ---------------------------------------------------------------------------
# property: validation reports what a per-row walk reports, in its order

def _reference_violations(scenario):
    """Each host, VM and cloudlet offence, found by walking the rows one by
    one, in the order `validate_scenario` reports them."""
    problems = []

    def quantity(word, value, where, finite=False):
        if finite and type(value) is int and abs(value) >= 2 ** 1024 - 2 ** 970:
            # float() rounds such an int to infinity, so it raises instead.
            problems.append(f"{word} out of float range on {where}")
        elif finite and not math.isfinite(value):
            problems.append(f"non-finite {word} on {where}")
        elif value <= 0:
            problems.append(f"non-positive {word} on {where}")

    seen_dc, seen_host, seen_vm, seen_cl = set(), set(), set(), set()
    for dc in scenario.datacenters:
        if dc.id in seen_dc:
            problems.append(f"duplicate datacenter id {dc.id}")
        seen_dc.add(dc.id)
        if not dc.hosts:
            problems.append(f"datacenter {dc.id} has no hosts")
        for host in dc.hosts:
            if host.id in seen_host:
                problems.append(f"duplicate host id {host.id}")
            seen_host.add(host.id)
            if host.datacenter_id != dc.id:
                problems.append(f"host {host.id} declares datacenter "
                                f"{host.datacenter_id} but sits in datacenter {dc.id}")
            quantity("mips", host.total_mips, f"host {host.id}", finite=True)
            quantity("ram", host.ram_mb, f"host {host.id}")
            quantity("storage", host.storage_mb, f"host {host.id}")
    for vm in scenario.vms:
        if vm.id <= 0:
            problems.append(f"non-positive vm id {vm.id}")
        if vm.id in seen_vm:
            problems.append(f"duplicate vm id {vm.id}")
        seen_vm.add(vm.id)
        quantity("mips", vm.mips, f"vm {vm.id}", finite=True)
        quantity("ram", vm.ram_mb, f"vm {vm.id}")
    for cl in scenario.cloudlets:
        if cl.id <= 0:
            problems.append(f"non-positive cloudlet id {cl.id}")
        if cl.id in seen_cl:
            problems.append(f"duplicate cloudlet id {cl.id}")
        seen_cl.add(cl.id)
        quantity("length", cl.length, f"cloudlet {cl.id}", finite=True)
    return problems


# Ids and quantities drawn from small pools, so that repeats and faults are
# common but most rows hold none. A valid host holds every VM.
_ids = st.sampled_from((1, 2, 3, 4, 5, 0, -1))
_sizes = st.sampled_from((10 ** 6, 10 ** 6, 10 ** 6, 0, -1))
_numbers = st.sampled_from((250.0, 1000.0, 1000.0, 0.0, -1.0, float("nan"),
                            float("inf"), float("-inf"), 10 ** 400))


@st.composite
def _faulty_scenarios(draw):
    """An API-built scenario of 1-3 datacenters, 1-4 VMs and 1-4 cloudlets,
    listed in arrival order, whose ids and quantities may be faulty."""
    datacenters = []
    for dc_id in draw(st.lists(st.sampled_from((1, 2, 0, -1)), min_size=1,
                               max_size=3)):
        hosts = draw(st.lists(st.builds(
            Host, _ids, st.sampled_from((dc_id, dc_id, 9)),
            _numbers.map(lambda x: x * 1000), _sizes, _sizes), max_size=2))
        datacenters.append(Datacenter(dc_id, tuple(hosts)))
    vms = draw(st.lists(st.builds(Vm, _ids, _numbers,
                                  st.sampled_from((512, 512, 0, -1))),
                        min_size=1, max_size=4))
    lengths = draw(st.lists(_numbers, min_size=1, max_size=4))
    cloudlets = [Cloudlet(draw(_ids), length, k) for k, length in enumerate(lengths)]
    return Scenario(tuple(datacenters), tuple(vms), tuple(cloudlets), "fcfs")


@given(scenario=_faulty_scenarios())
def test_violations_match_a_per_row_reference_walk(scenario):
    assert violations(scenario) == _reference_violations(scenario)


# ---------------------------------------------------------------------------
# property: whatever an API-built scenario's fields hold, validation either
# returns it or raises ValidationError

# Numbers (not positive, fractional, not finite, past float range), bools,
# None, strings and lists.
_any_value = st.sampled_from((0, -1, 2.5, float("nan"), float("inf"), 10 ** 400,
                              True, False, None, "", "1", [], [1], [1, 2]))


@st.composite
def _scenarios_of_any_values(draw):
    """A valid one-host scenario of two VMs and 1-3 cloudlets in which
    each field (every id and quantity, and the policy) is kept or,
    at a rate drawn per scenario (never, 1 in 20 or 6 in 20), replaced by
    any `_any_value`."""
    odds = draw(st.sampled_from((0, 1, 6)))

    def field(value):
        return draw(_any_value) if draw(st.integers(1, 20)) <= odds else value

    host = Host(field(1), field(1), field(500.0), field(1024), field(10 ** 6))
    vms = tuple(Vm(field(i), field(250.0), field(512)) for i in (1, 2))
    cloudlets = tuple(Cloudlet(field(k + 1), field(1000.0), field(k))
                      for k in range(draw(st.integers(1, 3))))
    return Scenario((Datacenter(field(1), (host,)),), vms, cloudlets,
                    field("fcfs"))


@given(scenario=_scenarios_of_any_values())
def test_validation_raises_nothing_but_validation_error(scenario):
    try:
        assert validate_scenario(scenario) is scenario
    except ValidationError as err:
        assert err.violations and all(err.violations)


def test_a_value_that_is_not_a_number_is_named_not_raised():
    base = make_scenario([250], [1000, 1000], check=False)
    host = base.datacenters[0].hosts[0]._replace(ram_mb=None)
    scenario = replace(base, datacenters=(Datacenter([1], (host,)),),
                       vms=(Vm("1", 250.0, [512]),),
                       cloudlets=(Cloudlet(1, "1000", 0), Cloudlet(2, 1000.0, "1")))
    assert violations(scenario) == [
        "datacenter id [1] is not a number",
        "host 1 declares datacenter 1 but sits in datacenter [1]",
        "ram of host 1 is not a number",
        "vm id '1' is not a number",
        "ram of vm 1 is not a number",
        "length of cloudlet 1 is not a number",
        "arrival indices do not form a contiguous 0..n-1 sequence",
    ]


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
    plan = ((1, 2, 0), (0, 1, 0))  # cloudlets 2, 3, 1 on VMs 1, 2, 1
    assert validate_plan(scenario, plan) is plan


def test_validate_plan_rejects_missing_and_duplicate_cloudlets():
    scenario = make_scenario([250, 500], [1000, 2000, 3000])
    with pytest.raises(ValidationError, match="leaves out cloudlet 3$"):
        validate_plan(scenario, ((0, 1), (0, 1)))
    with pytest.raises(ValidationError,
                       match=r"^plan position 2 \(cloudlet 2\) repeats"):
        validate_plan(scenario, ((0, 1, 1, 2), (0, 1, 0, 1)))
    with pytest.raises(ValidationError,
                       match="repeats its cloudlet; plan leaves out cloudlet 3"):
        validate_plan(scenario, ((0, 1, 1), (0, 1, 0)))


def test_validate_plan_rejects_unknown_vm():
    scenario = make_scenario([250], [1000])
    with pytest.raises(ValidationError,
                       match=r"plan position 0 \(cloudlet 1\): vm index 9 "):
        validate_plan(scenario, ((0,), (9,)))


def _plan_is_valid(n, m, order, vm_at):
    """The plan check's contract, stated on its own: every entry an exact
    int, `order` a permutation of range(n), every vm index in range(m)."""
    return (all(type(x) is int for x in (*order, *vm_at))
            and sorted(order) == list(range(n)) and len(vm_at) == n
            and all(0 <= v < m for v in vm_at))


@st.composite
def _plan_cases(draw):
    """(n, m, order, vm_at): `order` any range (reversed, offset, stepped,
    too long or too short), or a list or tuple near a permutation of
    range(n); `vm_at` about as long, of ints in range(m) or with True, 1.0,
    -1 and m mixed in."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("range", "list", "tuple")))
    if kind == "range":
        order = range(draw(st.integers(-2, n + 2)), draw(st.integers(-2, n + 3)),
                      draw(st.sampled_from((1, 1, -1, 2, -2, 3))))
    else:
        order = list(draw(st.permutations(range(n))))
        for _ in range(draw(st.integers(0, 2)) if order else 0):
            order[draw(st.integers(0, len(order) - 1))] = draw(
                st.sampled_from((True, 1.0, -1, n, 0)))
        resize = draw(st.sampled_from(("keep", "keep", "drop", "append")))
        if resize == "drop":
            order = order[:-1]
        elif resize == "append":
            order.append(draw(st.sampled_from((0, n))))
        order = tuple(order) if kind == "tuple" else order
    index = st.integers(0, m - 1)
    if draw(st.booleans()):
        index |= st.sampled_from((True, 1.0, -1, m))
    length = draw(st.sampled_from((len(order),) * 3 + (len(order) + 1,)))
    return n, m, order, draw(st.lists(index, min_size=length, max_size=length))


@example(case=(5, 3, range(4, -1, -1), [0, 1, 2, 0, 1]))
@example(case=(5, 3, range(1, 6), [0, 1, 2, 0, 1]))
@example(case=(3, 2, range(0, 6, 2), [0, 1, 0]))
@example(case=(3, 2, range(3), [0, True, 0]))
@example(case=(3, 2, range(3), [0, -1, 1]))
@example(case=(3, 2, [0, True, 2], [0, 1, 0]))
@given(case=_plan_cases())
def test_validate_plan_accepts_exactly_the_valid_plans(case):
    n, m, order, vm_at = case
    scenario = make_scenario([250] * m, [1000] * n, check=False)
    plan = (order, vm_at)
    if _plan_is_valid(n, m, order, vm_at):
        assert validate_plan(scenario, plan) is plan
    else:
        with pytest.raises(ValidationError) as err:
            validate_plan(scenario, plan)
        assert err.value.violations and all(err.value.violations)


def test_execution_mode_serial_values_are_stable():
    assert ExecutionMode.SPACE_SHARED.value == "space_shared"
    assert ExecutionMode.TIME_SHARED.value == "time_shared"
