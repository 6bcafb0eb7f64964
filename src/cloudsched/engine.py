"""Deterministic execution engine.

Runs an assignment plan on a scenario under one of two modes: space-shared
(each VM serves its queue one task at a time) or time-shared (egalitarian
processor sharing, the quantum->0 limit of round-robin). All cloudlets
arrive at t = 0; a run is a pure function of (scenario, plan, mode), and
one pass over the plan. VMs sit where the scenario placed them, and each
cloudlet's slot and length come from the index the scenario built once.
A run's result is columns: a kernel writes each field of a cloudlet's
outcome into its own column, at the cloudlet's arrival slot. Each mode's
kernel takes the whole plan in one pass; `ps_finish_times` is the
time-shared kernel's one-VM view, so its recursion is written once.
"""

from itertools import repeat
from math import nan

# `provision_vms` is unused here; the benchmark tracer still wraps this name.
from .model import (ExecutionMode, Plan, Scenario, SimulationResult, Vm,
                    provision_vms, validate_plan)


def ps_finish_times(lengths: list[float], mips: float) -> list[float]:
    """Finish times of jobs sharing one VM under egalitarian sharing: the
    time-shared kernel run on a one-VM plan. Output order matches input
    order; n equal jobs of length L all finish at exactly n*L/mips."""
    n = len(lengths)
    plan = tuple(zip(range(n), repeat(0)))
    return list(_time_shared(plan, (Vm(0, mips, 0),), range(n), lengths)[1])


# A kernel runs a whole plan: it returns the vm id, cpu time, start and
# finish columns, and vm id -> last finish in `vms` order.

def _space_shared(plan, vms, slot_of, length_of):
    """Each VM runs its jobs one at a time, in plan order."""
    n = len(plan)
    vm_ids, cpu_times, starts, finishes = [0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    mips_of = {vm.id: vm.mips for vm in vms}
    clock = dict.fromkeys(mips_of, 0.0)
    for cloudlet_id, vm_id in plan:
        slot = slot_of[cloudlet_id]
        vm_ids[slot] = vm_id
        starts[slot] = start = clock[vm_id]
        cpu_times[slot] = cpu_time = length_of[cloudlet_id] / mips_of[vm_id]
        clock[vm_id] = finishes[slot] = start + cpu_time
    return tuple(vm_ids), tuple(cpu_times), tuple(starts), tuple(finishes), clock


def _time_shared(plan, vms, slot_of, length_of):
    """Every job active from t = 0; cpu_time is the completion time.

    Each VM's queue of plan positions is sorted by length (stable: ties in
    plan order). Then, per VM: jump to the next completion, raise the
    per-job service watermark to the finished job's length, retire every
    job at the watermark, repeat. A VM's busy time is its last clock.
    """
    n = len(plan)
    cloudlet_ids, plan_vms = tuple(zip(*plan)) or ((), ())
    lengths = list(map(length_of.__getitem__, cloudlet_ids))
    slots = list(map(slot_of.__getitem__, cloudlet_ids))
    queues: dict[int, list[int]] = {vm.id: [] for vm in vms}
    for p, vm_id in enumerate(plan_vms):
        queues[vm_id].append(p)
    vm_ids, finishes = [0] * n, [0.0] * n
    busy = {}
    for vm in vms:
        vm_id, mips, queue = vm.id, vm.mips, queues[vm.id]
        queue.sort(key=lengths.__getitem__)
        k = len(queue)
        clock = served = 0.0  # served: MI every still-active job has had
        target = nan  # equal to no length, so the first job is an event
        for i, p in enumerate(queue):
            length = lengths[p]
            if length != target:
                clock += (length - served) * (k - i) / mips
                served = target = length
            slot = slots[p]
            vm_ids[slot] = vm_id
            finishes[slot] = clock
        busy[vm_id] = clock
    finishes = tuple(finishes)
    return tuple(vm_ids), finishes, (0.0,) * n, finishes, busy


_KERNELS = {
    ExecutionMode.SPACE_SHARED: _space_shared,
    ExecutionMode.TIME_SHARED: _time_shared,
}


def execute_plan(scenario: Scenario, plan: Plan,
                 mode: ExecutionMode) -> SimulationResult:
    """Run `plan` under `mode`; each VM serves its cloudlets in plan
    order, and the result's columns are in `scenario.cloudlets` order.

    Expects a validated scenario (`load_scenario`, `generate` and
    `builtin_scenario` return one); only the plan is checked here. A VM's
    busy time is its last finish, 0.0 when nothing was assigned.
    """
    validate_plan(scenario, plan)
    vm_ids, cpu_times, starts, finishes, busy = _KERNELS[mode](
        plan, scenario.vms, *scenario._index)
    return SimulationResult(
        mode, scenario._cloudlet_columns[0], vm_ids,
        tuple(map(scenario._datacenter_of.__getitem__, vm_ids)),
        cpu_times, starts, finishes, tuple(busy.values()))
