"""Deterministic execution engine.

Runs an assignment plan on a scenario under one of two modes: space-shared
(each VM serves its queue one task at a time) or time-shared (egalitarian
processor sharing, the quantum->0 limit of round-robin). All cloudlets
arrive at t = 0; a run is a pure function of (scenario, plan).
"""

from .model import (
    CloudletRecord,
    ExecutionMode,
    Plan,
    Scenario,
    SimulationResult,
    VmUsage,
    provision_vms,
    validate_plan,
)


def ps_finish_times(lengths: list[float], mips: float) -> list[float]:
    """Finish times of jobs sharing one VM under egalitarian sharing.

    All jobs start at t = 0 and each of the n active jobs progresses at
    mips/n. Event loop: jump to the next completion, raise the per-job
    service watermark to the finished job's length, drop every job at the
    watermark, repeat. Output order matches input order; n equal jobs of
    length L all finish at exactly n*L/mips.
    """
    n = len(lengths)
    order = sorted(range(n), key=lambda i: (lengths[i], i))
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


def _space_shared(lengths: list[float], mips: float) -> list[tuple[float, float, float]]:
    """One job at a time in queue order: each starts when the one ahead ends."""
    times = []
    clock = 0.0
    for length in lengths:
        cpu_time = length / mips
        times.append((cpu_time, clock, clock + cpu_time))
        clock += cpu_time
    return times


def _time_shared(lengths: list[float], mips: float) -> list[tuple[float, float, float]]:
    """Every job active from t = 0; cpu_time is the completion time."""
    return [(finish, 0.0, finish) for finish in ps_finish_times(lengths, mips)]


# mode -> per-VM kernel: (lengths in queue order, mips) -> (cpu_time, start,
# finish) per job, the order of CloudletRecord's time fields. VMs do not
# interact, so a run is the kernel applied to each VM's queue.
_KERNELS = {
    ExecutionMode.SPACE_SHARED: _space_shared,
    ExecutionMode.TIME_SHARED: _time_shared,
}


def execute_plan(scenario: Scenario, plan: Plan,
                 mode: ExecutionMode) -> SimulationResult:
    """Run `plan` under `mode`; each VM serves its cloudlets in plan
    order, and records come back in `scenario.cloudlets` order.

    Expects a validated scenario (`load_scenario`, `generate` and
    `builtin_scenario` return one), whose tuple order is arrival order;
    only the plan is checked here. A VM's busy time is its last finish,
    0.0 when nothing was assigned.
    """
    validate_plan(scenario, plan)
    kernel = _KERNELS[mode]
    host_of = provision_vms(scenario)
    datacenter_of = {h.id: h.datacenter_id for h in scenario.hosts()}
    cloudlets = scenario.cloudlets
    # Each record is written straight into its cloudlet's slot.
    slot_of = {cl.id: slot for slot, cl in enumerate(cloudlets)}
    length_of = {cl.id: cl.length for cl in cloudlets}
    queues: dict[int, list[int]] = {vm.id: [] for vm in scenario.vms}
    for cloudlet_id, vm_id in plan:
        queues[vm_id].append(cloudlet_id)

    records: list = [None] * len(cloudlets)
    usage = []
    for vm in scenario.vms:
        vm_id = vm.id
        queue = queues[vm_id]
        datacenter_id = datacenter_of[host_of[vm_id]]
        times = kernel([length_of[cid] for cid in queue], vm.mips)
        for cloudlet_id, (cpu_time, start, finish) in zip(queue, times):
            records[slot_of[cloudlet_id]] = CloudletRecord(
                cloudlet_id, vm_id, datacenter_id, cpu_time, start, finish)
        usage.append(VmUsage(vm_id, max((t[2] for t in times), default=0.0)))

    return SimulationResult(mode=mode, records=tuple(records),
                            vm_usage=tuple(usage))
