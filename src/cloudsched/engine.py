"""Deterministic execution engine.

Runs an assignment plan on a scenario under one of two modes: space-shared
(each VM serves its queue one task at a time) or time-shared (egalitarian
processor sharing, the quantum->0 limit of round-robin). All cloudlets
arrive at t = 0; a run is a pure function of (scenario, plan, mode). A plan
names cloudlets by arrival slot and VMs by position in `scenario.vms`, and
VMs sit where the scenario placed them. Each mode's kernel takes the whole
plan in one pass over the scenario's `lengths` column, indexing it with no
id lookup, and writes each field of a cloudlet's outcome into its own
column at the cloudlet's arrival slot; a result's ids column is the
scenario's. The time-shared kernel takes its shortest-first order from
the scenario's longest-first slots, which the scenario sorts once for
itself and its `with_policy` copies; a space-shared run never sorts.
`ps_finish_times` is the time-shared kernel's one-VM view.
"""

from math import nan

# `provision_vms` is unused here; the benchmark tracer still wraps this name.
from .model import (ExecutionMode, Plan, Scenario, SimulationResult, Vm,
                    provision_vms, validate_plan)


def ps_finish_times(lengths: list[float], mips: float) -> list[float]:
    """Finish times of jobs sharing one VM under egalitarian sharing: the
    time-shared kernel run on a one-VM plan. Output order matches input
    order; n equal jobs of length L all finish at exactly n*L/mips."""
    n = len(lengths)
    one_vm = Scenario((), (Vm(0, mips, 0),), cloudlet_ids=range(n),
                      lengths=lengths)
    return list(_time_shared(range(n), (0,) * n, one_vm)[1])


# A kernel runs a plan's two columns on the scenario's lengths by arrival
# slot: it returns the vm id, cpu time, start and finish columns, and VM
# busy times.

def _space_shared(order, vm_at, scenario):
    """Each VM runs its jobs one at a time, in plan order."""
    vms, lengths = scenario.vms, scenario.lengths
    n = len(order)
    vm_ids, cpu_times, starts, finishes = [0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    ids = [vm.id for vm in vms]
    mips = [vm.mips for vm in vms]
    clock = [0.0] * len(vms)
    for slot, v in zip(order, vm_at):
        vm_ids[slot] = ids[v]
        starts[slot] = start = clock[v]
        cpu_times[slot] = cpu_time = lengths[slot] / mips[v]
        clock[v] = finishes[slot] = start + cpu_time
    return tuple(vm_ids), tuple(cpu_times), tuple(starts), tuple(finishes), clock


def _time_shared(order, vm_at, scenario):
    """Every job active from t = 0; cpu_time is the completion time.

    Each VM's queue holds its slots shortest first: the scenario's
    longest-first slots, walked backwards, are dealt to their VMs. Equal
    lengths on one VM retire at one event, so their order (reverse
    arrival) moves no finish. Then, per VM: jump to the next completion,
    raise the per-job service watermark to the finished job's length,
    retire every job at the watermark, repeat. A VM's busy time is its
    last clock.
    """
    vms, lengths = scenario.vms, scenario.lengths
    n = len(order)
    vm_of = [0] * n  # arrival slot -> VM index
    for slot, v in zip(order, vm_at):
        vm_of[slot] = v
    queues: list[list[int]] = [[] for _ in vms]
    for slot in reversed(scenario._longest_first):
        queues[vm_of[slot]].append(slot)
    vm_ids, finishes = [0] * n, [0.0] * n
    busy = []
    for (vm_id, mips, _), queue in zip(vms, queues):
        k = len(queue)
        clock = served = 0.0  # served: MI every still-active job has had
        target = nan  # equal to no length, so the first job is an event
        for i, slot in enumerate(queue):
            length = lengths[slot]
            if length != target:
                clock += (length - served) * (k - i) / mips
                served = target = length
            vm_ids[slot] = vm_id
            finishes[slot] = clock
        busy.append(clock)
    finishes = tuple(finishes)
    return tuple(vm_ids), finishes, (0.0,) * n, finishes, busy


_KERNELS = {
    ExecutionMode.SPACE_SHARED: _space_shared,
    ExecutionMode.TIME_SHARED: _time_shared,
}


def execute_plan(scenario: Scenario, plan: Plan,
                 mode: ExecutionMode) -> SimulationResult:
    """Run `plan` under `mode`; each VM serves its cloudlets in plan
    order, and the result's columns are in arrival order, the order of
    the scenario's columns.

    Expects a validated scenario (as loaded, generated or built in); only
    the plan is checked here, and an unplaced scenario is placed or raises.
    A VM's busy time is its last finish, 0.0 when nothing was assigned.
    """
    validate_plan(scenario, plan)
    scenario._datacenter_of  # places the scenario, or raises
    vm_ids, cpu_times, starts, finishes, busy = _KERNELS[mode](*plan, scenario)
    return SimulationResult(mode, scenario.cloudlet_ids, vm_ids,
                            cpu_times, starts, finishes, tuple(busy))
