"""Deterministic execution engine.

Runs an assignment plan on a scenario under one of two modes: space-shared
(each VM serves its queue one task at a time) or time-shared (egalitarian
processor sharing, the quantum->0 limit of round-robin). All cloudlets
arrive at t = 0; a run is a pure function of (scenario, plan).
"""

from .model import (
    AssignmentPlan,
    CapacityError,
    CloudletRecord,
    ExecutionMode,
    Scenario,
    SimulationResult,
    VmUsage,
    validate_plan,
)


def provision_vms(scenario: Scenario) -> dict[int, int]:
    """Bind VMs to hosts first-fit, returning vm_id -> host_id.

    VMs are placed in creation order onto the first host (datacenter order,
    then host order) with enough unreserved MIPS and RAM; each placement
    debits the host.
    """
    hosts = scenario.hosts()
    free = {h.id: [h.total_mips, h.ram_mb] for h in hosts}
    binding: dict[int, int] = {}
    for vm in scenario.vms:
        for host in hosts:
            mips_left, ram_left = free[host.id]
            if vm.mips <= mips_left and vm.ram_mb <= ram_left:
                free[host.id][0] = mips_left - vm.mips
                free[host.id][1] = ram_left - vm.ram_mb
                binding[vm.id] = host.id
                break
        else:
            raise CapacityError(f"insufficient capacity for vm {vm.id}")
    return binding


def _vm_datacenters(scenario: Scenario) -> dict[int, int]:
    """vm_id -> datacenter_id of the host provisioning binds the VM to."""
    datacenter_of = {h.id: h.datacenter_id for h in scenario.hosts()}
    return {vm_id: datacenter_of[host_id]
            for vm_id, host_id in provision_vms(scenario).items()}


def ps_finish_times(lengths: list[float], mips: float) -> list[float]:
    """Finish times of jobs sharing one VM under egalitarian sharing.

    All jobs start at t = 0 and each of the n active jobs progresses at
    mips/n. Event loop: jump to the next completion, raise the per-job
    service watermark to the finished job's length, drop every job at the
    watermark, repeat. Output order matches input order; n equal jobs of
    length L all finish at exactly n*L/mips.
    """
    n = len(lengths)
    if n == 0:
        return []
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
        while i < n and lengths[order[i]] == target:
            finish[order[i]] = clock
            i += 1
    return finish


def run_space_shared(scenario: Scenario, plan: AssignmentPlan) -> SimulationResult:
    """Execute the plan with one cloudlet at a time per VM, in plan order.

    cpu_time is pure service time (length / mips); start is the sum of the
    cpu_times queued ahead on the same VM.
    """
    validate_plan(scenario, plan)
    datacenter_of = _vm_datacenters(scenario)
    cloudlets = {cl.id: cl for cl in scenario.cloudlets}
    queues = plan.vm_queues()

    records = []
    usage = []
    for vm in scenario.vms:
        clock = 0.0
        datacenter_id = datacenter_of[vm.id]
        for cloudlet_id in queues.get(vm.id, []):
            cpu_time = cloudlets[cloudlet_id].length / vm.mips
            records.append(CloudletRecord(
                cloudlet_id=cloudlet_id,
                vm_id=vm.id,
                datacenter_id=datacenter_id,
                cpu_time=cpu_time,
                start_time=clock,
                finish_time=clock + cpu_time,
            ))
            clock += cpu_time
        usage.append(VmUsage(vm.id, datacenter_id, vm.mips, busy_time=clock))

    return SimulationResult(
        mode=ExecutionMode.SPACE_SHARED,
        records=_in_arrival_order(scenario, records),
        vm_usage=tuple(usage),
    )


def run_time_shared(scenario: Scenario, plan: AssignmentPlan) -> SimulationResult:
    """Execute the plan with all of a VM's cloudlets simultaneously active.

    Per VM this is the processor-sharing kernel (ps_finish_times); VMs do
    not interact, so merging the per-VM event streams gives the global
    event order. Reported cpu_time is finish - start with start = 0.
    """
    validate_plan(scenario, plan)
    datacenter_of = _vm_datacenters(scenario)
    cloudlets = {cl.id: cl for cl in scenario.cloudlets}
    queues = plan.vm_queues()

    records = []
    usage = []
    for vm in scenario.vms:
        queue = queues.get(vm.id, [])
        datacenter_id = datacenter_of[vm.id]
        finishes = ps_finish_times([cloudlets[cid].length for cid in queue], vm.mips)
        for cloudlet_id, finish in zip(queue, finishes):
            records.append(CloudletRecord(
                cloudlet_id=cloudlet_id,
                vm_id=vm.id,
                datacenter_id=datacenter_id,
                cpu_time=finish,
                start_time=0.0,
                finish_time=finish,
            ))
        usage.append(VmUsage(vm.id, datacenter_id, vm.mips,
                             busy_time=max(finishes, default=0.0)))

    return SimulationResult(
        mode=ExecutionMode.TIME_SHARED,
        records=_in_arrival_order(scenario, records),
        vm_usage=tuple(usage),
    )


def execute_plan(scenario: Scenario, plan: AssignmentPlan,
                 mode: ExecutionMode) -> SimulationResult:
    """Run `plan` under `mode`."""
    if mode is ExecutionMode.SPACE_SHARED:
        return run_space_shared(scenario, plan)
    return run_time_shared(scenario, plan)


def _in_arrival_order(scenario: Scenario,
                      records: list[CloudletRecord]) -> tuple[CloudletRecord, ...]:
    arrival = {cl.id: cl.arrival_index for cl in scenario.cloudlets}
    return tuple(sorted(records, key=lambda r: arrival[r.cloudlet_id]))
