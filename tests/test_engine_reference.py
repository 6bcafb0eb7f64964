"""The one-pass engine against the per-VM engine it replaced.

`per_vm_reference` is `execute_plan` as it was before each mode became one
kernel over the whole plan: it queues the plan per VM, runs a per-VM kernel
on each queue (processor sharing with its `(length, index)` sort key), and
builds each cloudlet's row in turn, placing the VMs afresh on every run;
its result holds those rows as columns. It does the same float operations
in the same order, so the two results must be exactly equal, including on
tie-prone lengths.
"""

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import (
    Cloudlet,
    Datacenter,
    ExecutionMode,
    Host,
    Scenario,
    SimulationResult,
    Vm,
    execute_plan,
    provision_vms,
    validate_scenario,
)
from cloudsched.engine import validate_plan


def _ps_reference(lengths, mips):
    n = len(lengths)
    order = sorted(range(n), key=lambda i: (lengths[i], i))
    finish = [0.0] * n
    clock = 0.0
    served = 0.0
    i = 0
    while i < n:
        active = n - i
        target = lengths[order[i]]
        clock += (target - served) * active / mips
        served = target
        while True:
            finish[order[i]] = clock
            i += 1
            if i == n or lengths[order[i]] != target:
                break
    return finish


def _space_shared_reference(lengths, mips):
    times = []
    clock = 0.0
    for length in lengths:
        cpu_time = length / mips
        times.append((cpu_time, clock, clock + cpu_time))
        clock += cpu_time
    return times


def _time_shared_reference(lengths, mips):
    return [(finish, 0.0, finish) for finish in _ps_reference(lengths, mips)]


_REFERENCE_KERNELS = {
    ExecutionMode.SPACE_SHARED: _space_shared_reference,
    ExecutionMode.TIME_SHARED: _time_shared_reference,
}


def per_vm_reference(scenario, plan, mode):
    """Run `plan` one VM at a time, as the engine used to."""
    validate_plan(scenario, plan)
    kernel = _REFERENCE_KERNELS[mode]
    host_of = provision_vms(scenario)
    datacenter_of = {h.id: h.datacenter_id for h in scenario.hosts()}
    slot_of = {cl.id: slot for slot, cl in enumerate(scenario.cloudlets)}
    length_of = {cl.id: cl.length for cl in scenario.cloudlets}
    queues = {vm.id: [] for vm in scenario.vms}
    for cloudlet_id, vm_id in plan:
        queues[vm_id].append(cloudlet_id)
    rows = [None] * len(scenario.cloudlets)
    busy_times = []
    for vm in scenario.vms:
        queue = queues[vm.id]
        datacenter_id = datacenter_of[host_of[vm.id]]
        times = kernel([length_of[cid] for cid in queue], vm.mips)
        for cloudlet_id, (cpu_time, start, finish) in zip(queue, times):
            rows[slot_of[cloudlet_id]] = (
                cloudlet_id, vm.id, datacenter_id, cpu_time, start, finish)
        busy_times.append(max((t[2] for t in times), default=0.0))
    return SimulationResult(mode, *zip(*rows), busy_times=tuple(busy_times))


# Equal values, float sums that round (0.1 + 0.2 != 0.3), and near-ties
# 2**-20 MI apart, beside arbitrary lengths.
_TIE_PRONE_LENGTHS = (0.1, 0.2, 0.3, 1000.0, 1000.0 + 2.0 ** -20,
                      3000.0, 3000.0 + 2.0 ** -20, 3000.0 - 2.0 ** -19)
_LENGTH = st.one_of(st.sampled_from(_TIE_PRONE_LENGTHS),
                    st.floats(min_value=0.001, max_value=1e6))
_MIPS = st.floats(min_value=1.0, max_value=5000.0)


@st.composite
def _runs(draw):
    """A valid scenario on 1-4 datacenters of 1-3 hosts each, with 1-40
    VMs and sparse ids, and an arbitrary valid plan in shuffled order."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        vm_mips = draw(st.lists(_MIPS, min_size=m, max_size=m, unique=True))
    else:
        pool = draw(st.lists(_MIPS, min_size=1, max_size=3))
        vm_mips = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    vm_ids = draw(st.lists(st.integers(1, 10_000), min_size=m, max_size=m,
                           unique=True))
    # Small hosts first, so first-fit spreads the VMs over the datacenters;
    # the last host takes whatever is left.
    layout = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    hosts = []
    for dc, n_hosts in enumerate(layout, start=1):
        for _ in range(n_hosts):
            hosts.append(Host(id=len(hosts) + 1, datacenter_id=dc,
                              total_mips=draw(st.sampled_from(vm_mips)) * 2,
                              ram_mb=512 * draw(st.integers(1, 4)),
                              storage_mb=1000))
    hosts[-1] = Host(id=hosts[-1].id, datacenter_id=len(layout),
                     total_mips=2 * sum(vm_mips), ram_mb=512 * m,
                     storage_mb=1000)
    n = draw(st.integers(1, 60))
    cloudlet_ids = draw(st.lists(st.integers(1, 10_000), min_size=n,
                                 max_size=n, unique=True))
    scenario = validate_scenario(Scenario(
        datacenters=tuple(
            Datacenter(id=dc, hosts=tuple(h for h in hosts if h.datacenter_id == dc))
            for dc in range(1, len(layout) + 1)),
        vms=tuple(Vm(id=i, mips=mips, ram_mb=512)
                  for i, mips in zip(vm_ids, vm_mips)),
        cloudlets=tuple(Cloudlet(id=cid, length=draw(_LENGTH), arrival_index=k)
                        for k, cid in enumerate(cloudlet_ids)),
        policy="fcfs"))
    targets = draw(st.lists(st.sampled_from(vm_ids), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    plan = tuple((cloudlet_ids[k], targets[k]) for k in order)
    return scenario, plan


@given(_runs())
def test_one_pass_engine_matches_the_per_vm_engine(run):
    scenario, plan = run
    for mode in ExecutionMode:
        result = execute_plan(scenario, plan, mode)
        expected = per_vm_reference(scenario, plan, mode)
        assert result == expected
