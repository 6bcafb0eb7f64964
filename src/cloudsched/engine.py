"""Deterministic execution engine.

Runs an assignment plan on a scenario under one of two modes: space-shared
(each VM serves its queue one task at a time) or time-shared (egalitarian
processor sharing, the quantum->0 limit of round-robin). All cloudlets
arrive at t = 0; a run is a pure function of (scenario, plan, mode), and
one pass over the plan. VMs sit where the scenario placed them, and each
cloudlet's slot and length come from the index the scenario built once.
"""

from itertools import repeat

# `provision_vms` is unused here; the benchmark tracer still wraps this name.
from .model import (CloudletRecord, ExecutionMode, Plan, Scenario,
                    SimulationResult, VmUsage, provision_vms, validate_plan)


def ps_finish_times(lengths: list[float], mips: float) -> list[float]:
    """Finish times of jobs sharing one VM under egalitarian sharing.

    All jobs start at t = 0 and each of the n active jobs progresses at
    mips/n. Event loop: jump to the next completion, raise the per-job
    service watermark to the finished job's length, drop every job at the
    watermark, repeat. Output order matches input order; n equal jobs of
    length L all finish at exactly n*L/mips.
    """
    n = len(lengths)
    order = sorted(range(n), key=lengths.__getitem__)  # stable: ties by index
    finish = [0.0] * n
    clock = 0.0
    served = 0.0  # MI of service every still-active job has received
    i = 0
    while i < n:
        active = n - i
        target = lengths[order[i]]
        clock += (target - served) * active / mips
        served = target
        # Each group retires at least one job, so a NaN (equal to nothing,
        # itself included) cannot stall the loop.
        while True:
            finish[order[i]] = clock
            i += 1
            if i == n or lengths[order[i]] != target:
                break
    return finish


# A kernel runs a whole plan: it writes each cloudlet's record fields into
# its arrival slot in `rows` and returns vm id -> last finish, in `vms` order.

def _space_shared(plan, vms, datacenter_of, slot_of, length_of, rows):
    """Each VM runs its jobs one at a time, in plan order."""
    mips_of = {vm.id: vm.mips for vm in vms}
    clock = dict.fromkeys(mips_of, 0.0)
    for cloudlet_id, vm_id in plan:
        start = clock[vm_id]
        cpu_time = length_of[cloudlet_id] / mips_of[vm_id]
        clock[vm_id] = finish = start + cpu_time
        rows[slot_of[cloudlet_id]] = (cloudlet_id, vm_id, datacenter_of[vm_id],
                                      cpu_time, start, finish)
    return clock


def _time_shared(plan, vms, datacenter_of, slot_of, length_of, rows):
    """Every job active from t = 0; cpu_time is the completion time."""
    queues: dict[int, list[int]] = {vm.id: [] for vm in vms}
    for cloudlet_id, vm_id in plan:
        queues[vm_id].append(cloudlet_id)
    busy = {}
    for vm in vms:
        vm_id, queue = vm.id, queues[vm.id]
        finishes = ps_finish_times([length_of[c] for c in queue], vm.mips)
        for cloudlet_id, finish in zip(queue, finishes):
            rows[slot_of[cloudlet_id]] = (
                cloudlet_id, vm_id, datacenter_of[vm_id], finish, 0.0, finish)
        busy[vm_id] = max(finishes, default=0.0)
    return busy


_KERNELS = {
    ExecutionMode.SPACE_SHARED: _space_shared,
    ExecutionMode.TIME_SHARED: _time_shared,
}


def execute_plan(scenario: Scenario, plan: Plan,
                 mode: ExecutionMode) -> SimulationResult:
    """Run `plan` under `mode`; each VM serves its cloudlets in plan
    order, and records come back in `scenario.cloudlets` order.

    Expects a validated scenario (`load_scenario`, `generate` and
    `builtin_scenario` return one); only the plan is checked here. A VM's
    busy time is its last finish, 0.0 when nothing was assigned.
    """
    validate_plan(scenario, plan)
    rows: list = [None] * len(scenario.cloudlets)
    busy = _KERNELS[mode](plan, scenario.vms, scenario._datacenter_of,
                          *scenario._index, rows)
    return SimulationResult(
        mode, tuple(map(tuple.__new__, repeat(CloudletRecord), rows)),
        tuple(map(tuple.__new__, repeat(VmUsage), busy.items())))
