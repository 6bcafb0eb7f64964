"""Domain types shared by the whole simulator.

Everything here is an immutable value object: scenarios are validated once
and can then be shared freely between policies, engine runs and reports.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

POLICIES = ("fcfs", "rr", "gpa")


class ExecutionMode(Enum):
    """How a VM serves its queue: one task at a time, or all at once."""

    SPACE_SHARED = "space_shared"
    TIME_SHARED = "time_shared"


class ValidationError(ValueError):
    """Raised when a scenario breaks one or more model invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Cloudlet(NamedTuple):
    """One task: `length` is total work in MI (millions of instructions);
    `arrival_index` is its 0-based place in arrival order, which in a
    valid scenario is its position in `Scenario.cloudlets`."""

    id: int
    length: float
    arrival_index: int


@dataclass(frozen=True)
class Vm:
    """A virtual machine rated in MIPS."""

    id: int
    mips: float
    ram_mb: int


@dataclass(frozen=True)
class Host:
    id: int
    datacenter_id: int
    total_mips: float
    ram_mb: int
    storage_mb: int


@dataclass(frozen=True)
class Datacenter:
    id: int
    hosts: tuple[Host, ...]


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input: infrastructure, workload and policy.

    `vms` are in creation order and `cloudlets` in arrival order; both
    orders are semantically meaningful (cyclic dispatch follows them).
    Validation requires `cloudlets[k].arrival_index == k`: the loader
    orders a document's cloudlets by `arrival_index`, and an API-built
    scenario must list them that way itself. It also requires that
    first-fit places every VM (`provision_vms`). A scenario is placed
    and indexed once, by validation or else on its first run, and keeps both.
    `execution_mode` overrides the policy's default mode when set.
    """

    datacenters: tuple[Datacenter, ...]
    vms: tuple[Vm, ...]
    cloudlets: tuple[Cloudlet, ...]
    policy: str
    execution_mode: Optional[ExecutionMode] = None

    def hosts(self) -> tuple[Host, ...]:
        """All hosts, in datacenter order then host order."""
        return tuple(h for dc in self.datacenters for h in dc.hosts)

    def with_policy(self, policy: str) -> "Scenario":
        """This scenario under `policy`, sharing its placement and index."""
        copy = replace(self, policy=policy)
        for name in vars(self).keys() - vars(copy).keys():
            vars(copy)[name] = vars(self)[name]
        return copy

    @cached_property
    def _datacenter_of(self) -> dict[int, int]:
        """vm id -> datacenter id under first-fit. A scenario that cannot
        be placed raises on every access: a raise is not cached."""
        host_dc = {h.id: h.datacenter_id for h in self.hosts()}
        return {vm: host_dc[host] for vm, host in provision_vms(self).items()}

    @cached_property
    def _index(self) -> tuple[dict[int, int], dict[int, float]]:
        """(cloudlet id -> arrival slot, cloudlet id -> length)."""
        ids = tuple(map(attrgetter("id"), self.cloudlets))
        return (dict(zip(ids, range(len(ids)))),
                dict(zip(ids, map(attrgetter("length"), self.cloudlets))))


# What a policy hands the engine: ordered (cloudlet_id, vm_id) pairs. Each
# VM serves its cloudlets in plan order.
Plan = tuple[tuple[int, int], ...]


class CloudletRecord(NamedTuple):
    """Execution outcome of one cloudlet (all times in seconds).

    A named tuple, not a dataclass: a run builds one per cloudlet, and a
    tuple costs about a third of a frozen dataclass to build.
    """

    cloudlet_id: int
    vm_id: int
    datacenter_id: int
    cpu_time: float
    start_time: float
    finish_time: float


@dataclass(frozen=True)
class VmUsage:
    """Per-VM accounting attached to a result."""

    vm_id: int
    busy_time: float


@dataclass(frozen=True)
class SimulationResult:
    """One run, and the numbers the policies are ranked by. Space-shared
    runs are compared on mean CPU (service) time, time-shared runs on mean
    completion time; a result carries both. `policy` labels the run
    (`summarize`). Each scan of the records runs once per result."""

    mode: ExecutionMode
    records: tuple[CloudletRecord, ...]
    vm_usage: tuple[VmUsage, ...]
    policy: str = ""

    @property
    def n_cloudlets(self) -> int:
        return len(self.records)

    @cached_property
    def mean_cpu_time(self) -> float:
        return sum(map(attrgetter("cpu_time"), self.records)) / len(self.records)

    @cached_property
    def mean_completion_time(self) -> float:
        return sum(map(attrgetter("finish_time"), self.records)) / len(self.records)

    @property
    def headline_mean(self) -> float:
        """The comparison metric: CPU time when space-shared, completion
        time when time-shared."""
        if self.mode is ExecutionMode.SPACE_SHARED:
            return self.mean_cpu_time
        return self.mean_completion_time

    @cached_property
    def makespan(self) -> float:
        return max(map(attrgetter("finish_time"), self.records))

    @property
    def mean_utilization(self) -> float:
        """Mean over VMs of busy time / makespan."""
        makespan = self.makespan  # a cached attribute reads slower than a local
        return (sum(u.busy_time / makespan for u in self.vm_usage)
                / len(self.vm_usage))


def provision_vms(scenario: Scenario) -> dict[int, int]:
    """Bind VMs to hosts first-fit, returning vm_id -> host_id.

    VMs are placed in creation order onto the first host (datacenter order,
    then host order) with enough unreserved MIPS and RAM; each placement
    debits the host. Raises ValidationError naming the first VM that fits
    on no host, which a validated scenario never has.
    """
    # [MIPS left, RAM left, host id] per host, in first-fit order.
    rooms = [[h.total_mips, h.ram_mb, h.id] for h in scenario.hosts()]
    binding: dict[int, int] = {}
    for vm in scenario.vms:
        mips, ram = vm.mips, vm.ram_mb
        for room in rooms:
            if mips <= room[0] and ram <= room[1]:
                room[0] -= mips
                room[1] -= ram
                binding[vm.id] = room[2]
                break
        else:
            raise ValidationError([f"insufficient capacity for vm {vm.id}"])
    return binding


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return `scenario` unchanged if valid, else raise ValidationError
    with every invariant violation, one message per offender. Only a
    scenario with no other violation is placed, for every later run; the
    ValidationError of `provision_vms` names the first VM that fits nowhere.
    """
    problems: list[str] = []

    if not scenario.cloudlets:
        problems.append("empty cloudlet set")
    if not scenario.vms:
        problems.append("empty vm set")
    if not scenario.datacenters:
        problems.append("no datacenters")
    if scenario.policy not in POLICIES:
        problems.append(f"unknown policy {scenario.policy!r}")

    seen_dc: set[int] = set()
    seen_host: set[int] = set()
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
                problems.append(
                    f"host {host.id} declares datacenter {host.datacenter_id} "
                    f"but sits in datacenter {dc.id}")
            if not math.isfinite(host.total_mips):
                problems.append(f"non-finite mips on host {host.id}")
            elif host.total_mips <= 0:
                problems.append(f"non-positive mips on host {host.id}")
            if host.ram_mb <= 0:
                problems.append(f"non-positive ram on host {host.id}")
            if host.storage_mb <= 0:
                problems.append(f"non-positive storage on host {host.id}")

    seen_vm: set[int] = set()
    for vm in scenario.vms:
        if vm.id <= 0:
            problems.append(f"non-positive vm id {vm.id}")
        if vm.id in seen_vm:
            problems.append(f"duplicate vm id {vm.id}")
        seen_vm.add(vm.id)
        if not math.isfinite(vm.mips):
            problems.append(f"non-finite mips on vm {vm.id}")
        elif vm.mips <= 0:
            problems.append(f"non-positive mips on vm {vm.id}")
        if vm.ram_mb <= 0:
            problems.append(f"non-positive ram on vm {vm.id}")

    seen_cl: set[int] = set()
    for cl_id, length, _ in scenario.cloudlets:
        if cl_id <= 0:
            problems.append(f"non-positive cloudlet id {cl_id}")
        if cl_id in seen_cl:
            problems.append(f"duplicate cloudlet id {cl_id}")
        seen_cl.add(cl_id)
        if not math.isfinite(length):
            problems.append(f"non-finite length on cloudlet {cl_id}")
        elif length <= 0:
            problems.append(f"non-positive length on cloudlet {cl_id}")

    indices = list(map(attrgetter("arrival_index"), scenario.cloudlets))
    slots = list(range(len(indices)))
    if indices != slots:
        if sorted(indices) == slots:
            problems.append("cloudlets are not listed in arrival order")
        else:
            problems.append("arrival indices do not form a contiguous 0..n-1 sequence")

    if problems:
        raise ValidationError(problems)
    scenario._datacenter_of  # places the scenario, or raises
    scenario._index  # and indexes it
    return scenario


def validate_plan(scenario: Scenario, plan: Plan) -> Plan:
    """Check a plan covers every cloudlet exactly once on existing VMs;
    return it unchanged."""
    problems: list[str] = []
    planned = set(map(itemgetter(0), plan))
    # One entry per cloudlet, over distinct ids that are the cloudlets' ids.
    # A scenario that repeats a cloudlet id therefore has no valid plan.
    if not (len(plan) == len(scenario.cloudlets) == len(planned)
            and planned == scenario._index[0].keys()):
        problems.append("plan entries are not a permutation of the cloudlets")
    vm_ids = {vm.id for vm in scenario.vms}
    if not vm_ids.issuperset(map(itemgetter(1), plan)):
        problems += [f"plan assigns cloudlet {cloudlet_id} to unknown vm {vm_id}"
                     for cloudlet_id, vm_id in plan if vm_id not in vm_ids]
    if problems:
        raise ValidationError(problems)
    return plan
